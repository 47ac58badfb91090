package pass

import "mao/internal/ir"

// This file is the provenance-stamping surface of the pass framework.
// Passes mutate the IR through these Ctx helpers instead of reaching
// into ir.List directly; each helper performs the structural edit and
// stamps the node's ir.Provenance record with this invocation's
// NAME[idx] reference. `mao --explain` and the maod explain=1 response
// render those records as per-instruction lineage.
//
// The stamping is unconditional — a provenance record is two small
// structs behind one pointer, and keeping it always-on means the
// lineage is available after any run, not only specially-instrumented
// ones. Emitted assembly is unaffected (provenance never renders
// outside --explain), which the differential tests pin.
//
// Parallel safety: the helpers only touch the node being edited and
// the unit list (whose structural ops are internally serialized), so
// ParallelSafe passes may call them from worker goroutines exactly as
// they previously called ir.List methods.
//
// The helpers also notify the invocation's relaxation state (Ctx.Relax)
// about every edit, so the next layout computation rescans only the
// fragments the edit touched, and drop the function analyses of what
// they edit (Ctx.CFG, Ctx.Live, Ctx.Reach): the function the manager
// runs the context on, or every function for a unit pass or a NewCtx
// context. Passes that bypass the helpers still get correct layouts
// and analyses — the relaxation state and the analysis table detect
// unnotified edits through the list's version counter, and fall back
// to a full rebuild and to dropping every analysis — they just forfeit
// the incremental path and the reuse.

// Ref returns this invocation's reference: the pass name plus its
// pipeline invocation index. Programmatic contexts built with NewCtx
// have index -1 (rendered "NAME[?]").
func (c *Ctx) Ref() ir.PassRef { return ir.PassRef{Pass: c.passName, Index: c.passIndex} }

func (c *Ctx) stampNew(n *ir.Node) *ir.Node {
	ref := c.Ref()
	n.Prov = &ir.Provenance{Origin: ref, LastMut: ref}
	return n
}

// InsertBefore links the freshly synthesized node n into the unit list
// immediately before at and stamps this invocation as its origin and
// last mutator.
func (c *Ctx) InsertBefore(n, at *ir.Node) *ir.Node {
	c.Unit.List.InsertBefore(n, at)
	c.an.edited(c.fn, 1)
	c.Relax.NodeInserted(n)
	return c.stampNew(n)
}

// InsertAfter links the freshly synthesized node n immediately after
// at and stamps this invocation as its origin and last mutator.
func (c *Ctx) InsertAfter(n, at *ir.Node) *ir.Node {
	c.Unit.List.InsertAfter(n, at)
	c.an.edited(c.fn, 1)
	c.Relax.NodeInserted(n)
	return c.stampNew(n)
}

// Append links the freshly synthesized node n at the end of the unit
// list and stamps this invocation as its origin and last mutator.
func (c *Ctx) Append(n *ir.Node) *ir.Node {
	c.Unit.List.Append(n)
	c.an.edited(c.fn, 1)
	c.Relax.NodeInserted(n)
	return c.stampNew(n)
}

// Delete unlinks n from the unit list. A deleted node leaves no
// lineage behind (there is no node to carry it); passes report
// deletions through their statistics counters, which the span of this
// invocation captures.
func (c *Ctx) Delete(n *ir.Node) {
	c.Unit.List.Remove(n)
	c.an.edited(c.fn, 1)
	c.Relax.NodeRemoved(n)
}

// Rewrite records an in-place mutation of n (opcode or operand
// change): the node keeps its origin — a source line or the pass that
// created it — and this invocation becomes its last mutator. Call it
// after editing n.Inst. The list cannot observe in-place edits itself,
// so Rewrite also bumps its version counter on the node's behalf.
func (c *Ctx) Rewrite(n *ir.Node) {
	if n.Prov == nil {
		n.Prov = &ir.Provenance{}
	}
	n.Prov.LastMut = c.Ref()
	c.Unit.List.BumpVersion()
	c.an.edited(c.fn, 1)
	c.Relax.NodeMutated(n)
}

// MoveBefore relinks the existing node n immediately before at. The
// node is not new, so its origin is preserved; this invocation becomes
// its last mutator (SCHED's reordering shows up in lineage this way).
func (c *Ctx) MoveBefore(n, at *ir.Node) {
	c.Unit.List.Remove(n)
	c.Relax.NodeRemoved(n)
	c.Unit.List.InsertBefore(n, at)
	c.Relax.NodeInserted(n)
	c.an.edited(c.fn, 2)
	c.Rewrite(n)
}

// MoveToEnd relinks the existing node n to the end of the unit list,
// preserving origin and stamping this invocation as last mutator.
func (c *Ctx) MoveToEnd(n *ir.Node) {
	c.Unit.List.Remove(n)
	c.Relax.NodeRemoved(n)
	c.Unit.List.Append(n)
	c.Relax.NodeInserted(n)
	c.an.edited(c.fn, 2)
	c.Rewrite(n)
}
