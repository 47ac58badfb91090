// Package ir implements the MAO intermediate representation.
//
// After parsing, an assembly file is one long doubly-linked list of
// nodes — instructions, labels and directives — exactly mirroring the
// original MAO design. On top of the flat list the package recovers
// the higher-level structure of assembly files: sections and
// functions, with iterators that transparently skip the data fragments
// a compiler may interleave into a function body (e.g. jump tables
// emitted for C switch statements).
package ir

import (
	"fmt"
	"strconv"
	"strings"

	"mao/internal/x86"
)

// NodeKind discriminates the three kinds of IR nodes.
type NodeKind uint8

// Node kinds.
const (
	NodeInst NodeKind = iota
	NodeLabel
	NodeDirective
)

// Node is one element of the IR list. Exactly one of Inst, Label and
// Dir is meaningful, selected by Kind.
type Node struct {
	prev, next *Node
	list       *List

	// id is the node's dense per-list index, assigned by the owning
	// List the first time the node is linked (see List.assignID) and
	// kept for the node's lifetime — a node removed and re-inserted
	// into the same list keeps its index. 0 means "never linked".
	// home is the identity token of the list that assigned it (see
	// List.Owns).
	id   int
	home *listToken

	Kind  NodeKind
	Inst  *x86.Inst  // NodeInst
	Label string     // NodeLabel: label name (without trailing colon)
	Dir   *Directive // NodeDirective

	// Section is the name of the section the node lives in, filled in
	// by Unit structure analysis.
	Section string

	// Line is the 1-based source line the node was parsed from, or 0
	// for nodes synthesized by passes. Diagnostics use it for
	// file:line positions.
	Line int

	// Prov is the node's provenance record: which pass invocation
	// created it and which one last mutated it. It is nil for source
	// nodes no pass has touched, so untouched units pay one pointer of
	// space and nothing else. Passes stamp it through the pass.Ctx
	// Insert/Delete/Rewrite helpers; `mao --explain` renders it.
	Prov *Provenance
}

// PassRef identifies one pass invocation of a pipeline run: the pass
// name plus its invocation index, rendered "NAME[idx]". The zero value
// means "no pass" (e.g. a node's origin when it was parsed from
// source). Index -1 marks a programmatic invocation outside a managed
// pipeline (pass.NewCtx), rendered "NAME[?]".
type PassRef struct {
	Pass  string `json:"pass"`
	Index int    `json:"index"`
}

// IsZero reports whether the ref names no invocation.
func (r PassRef) IsZero() bool { return r.Pass == "" }

// String renders the ref in the pipeline error/trace syntax NAME[idx].
func (r PassRef) String() string {
	if r.IsZero() {
		return ""
	}
	if r.Index < 0 {
		return r.Pass + "[?]"
	}
	return fmt.Sprintf("%s[%d]", r.Pass, r.Index)
}

// Provenance records a node's optimization lineage. Origin is the
// invocation that synthesized the node (zero for nodes parsed from
// source — their origin is Node.Line); LastMut is the invocation that
// last changed the node in place (or created it). A compact two-ref
// record is deliberate: full mutation histories would grow with the
// pipeline, while phase-ordering consumers only need creator and last
// writer.
type Provenance struct {
	Origin  PassRef
	LastMut PassRef
}

// Directive is an assembler directive with its raw arguments, e.g.
// {Name: ".p2align", Args: ["4", "", "15"]}.
type Directive struct {
	Name string
	Args []string
}

// String renders the directive as it appears in an assembly file.
func (d *Directive) String() string {
	return string(d.AppendTo(make([]byte, 0, 64)))
}

// AppendTo appends the directive as it appears in an assembly file to
// dst and returns the extended buffer. It allocates only to grow dst.
func (d *Directive) AppendTo(dst []byte) []byte {
	dst = append(dst, d.Name...)
	for i, a := range d.Args {
		if i == 0 {
			dst = append(dst, '\t')
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, a...)
	}
	return dst
}

// InstNode returns a fresh instruction node.
func InstNode(in *x86.Inst) *Node { return &Node{Kind: NodeInst, Inst: in} }

// LabelNode returns a fresh label node.
func LabelNode(name string) *Node { return &Node{Kind: NodeLabel, Label: name} }

// DirectiveNode returns a fresh directive node.
func DirectiveNode(name string, args ...string) *Node {
	return &Node{Kind: NodeDirective, Dir: &Directive{Name: name, Args: args}}
}

// Clone returns a deep copy of the node, unlinked from any list:
// instruction, directive and provenance records are independent of
// the original's, so mutating either side never aliases the other.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Label: n.Label, Section: n.Section, Line: n.Line}
	if n.Inst != nil {
		c.Inst = n.Inst.Clone()
	}
	if n.Dir != nil {
		d := Directive{Name: n.Dir.Name, Args: append([]string(nil), n.Dir.Args...)}
		c.Dir = &d
	}
	if n.Prov != nil {
		p := *n.Prov
		c.Prov = &p
	}
	return c
}

// Index returns the node's dense per-list index: a small positive
// integer assigned on first insertion and stable for the node's
// lifetime (re-inserting a removed node keeps its index). 0 means the
// node was never linked into a list. Relaxation uses it to keep
// per-node layout data in slices instead of maps.
func (n *Node) Index() int { return n.id }

// InList reports whether the node is currently linked into a list.
func (n *Node) InList() bool { return n.list != nil }

// Next returns the following node in the unit list, or nil at the end.
func (n *Node) Next() *Node { return n.next }

// Prev returns the preceding node in the unit list, or nil at the
// start.
func (n *Node) Prev() *Node { return n.prev }

// IsInst reports whether the node is an instruction node.
func (n *Node) IsInst() bool { return n.Kind == NodeInst }

// NextInst returns the next instruction node, skipping labels and
// directives, or nil.
func (n *Node) NextInst() *Node {
	for m := n.next; m != nil; m = m.next {
		if m.Kind == NodeInst {
			return m
		}
	}
	return nil
}

// PrevInst returns the previous instruction node, skipping labels and
// directives, or nil.
func (n *Node) PrevInst() *Node {
	for m := n.prev; m != nil; m = m.prev {
		if m.Kind == NodeInst {
			return m
		}
	}
	return nil
}

// String renders the node as one line of assembly (without newline).
func (n *Node) String() string {
	return string(n.AppendTo(make([]byte, 0, 96)))
}

// AppendTo appends the node as one line of assembly (without newline)
// to dst and returns the extended buffer. It is the IR's one printer:
// String, Unit.WriteTo and the memo's fingerprints all render through
// it. It allocates only to grow dst.
func (n *Node) AppendTo(dst []byte) []byte {
	switch n.Kind {
	case NodeInst:
		return n.Inst.AppendTo(append(dst, '\t'))
	case NodeLabel:
		return append(append(dst, n.Label...), ':')
	case NodeDirective:
		return n.Dir.AppendTo(append(dst, '\t'))
	}
	return append(strconv.AppendUint(append(dst, "<bad node kind "...), uint64(n.Kind), 10), '>')
}

// IsAlignDirective reports whether the node is an alignment directive
// (.align, .p2align, .balign) and returns the resulting alignment in
// bytes. The GNU assembler treats .p2align's first argument as a power
// of two and .balign's as a byte count; .align behaves like .p2align
// on x86 ELF targets.
func (n *Node) IsAlignDirective() (align int, ok bool) {
	if n.Kind != NodeDirective {
		return 0, false
	}
	var pow2 bool
	switch n.Dir.Name {
	case ".p2align", ".align":
		pow2 = true
	case ".balign":
		pow2 = false
	default:
		return 0, false
	}
	if len(n.Dir.Args) == 0 {
		return 1, true
	}
	var v int
	if _, err := fmt.Sscanf(strings.TrimSpace(n.Dir.Args[0]), "%d", &v); err != nil {
		return 0, false
	}
	if pow2 {
		if v < 0 || v > 31 {
			return 0, false
		}
		return 1 << v, true
	}
	if v <= 0 {
		return 0, false
	}
	return v, true
}

// AlignMax returns the third argument of a .p2align directive (the
// maximum number of padding bytes), or -1 when unbounded/absent.
func (n *Node) AlignMax() int {
	if n.Kind != NodeDirective || len(n.Dir.Args) < 3 {
		return -1
	}
	var v int
	if _, err := fmt.Sscanf(strings.TrimSpace(n.Dir.Args[2]), "%d", &v); err != nil {
		return -1
	}
	return v
}
