// Package relax implements repeated relaxation: the iterative
// computation of instruction sizes and addresses in the presence of
// variable-length branches and alignment directives.
//
// Relaxation is the process of finding proper instruction sizes for
// branches based on branch-target distances. Inserting a single byte
// can push a branch target out of rel8 range, growing the branch from
// 2 to 5 (jmp) or 6 (jcc) bytes, which moves every following
// instruction, which can grow further branches — so the computation
// iterates. In the general case the problem is NP-complete; following
// the original MAO (and gas), branch sizes only ever grow, and an
// iteration cap of 100 bounds the computation. In practice almost
// every relaxation converges in a few iterations.
//
// The engine is fragment-based (see State): each section is partitioned
// into runs of fixed-size nodes ending at a size-variable tail — a
// relaxable branch or an alignment directive — so the fixpoint sweeps
// O(fragments) integers per round instead of re-sizing O(nodes), and
// a reusable State re-partitions only the fragments an edit touched.
// Relaxation computes lengths only; Layout.Bytes encodes a node at its
// relaxed address when a caller asks for the bytes. Reference is the
// straight-line full-walk implementation the differential tests
// compare against.
package relax

import (
	"fmt"
	"strconv"
	"strings"

	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

// Layout is the result of relaxation: byte-accurate addresses and
// lengths for every node of the unit, per section. A Layout is a view
// into the State that produced it — reading it is cheap (slice
// indexing off the node's dense ir.Node.Index), but it is invalidated
// by that State's next Relax call.
type Layout struct {
	// SectionEnd maps each section name to its end address (== size,
	// since sections start at the base address).
	SectionEnd map[string]int64
	// Iterations is the number of fixpoint iterations performed.
	Iterations int

	s *State
}

// Addr returns the address of n within its section (labels and
// directives included; a label's address is that of the following byte
// of code/data). Nodes unknown to the layout report 0.
func (l *Layout) Addr(n *ir.Node) int64 {
	f := l.s.fragAt(n)
	if f == nil {
		return 0
	}
	return f.start + l.s.off[n.Index()]
}

// Len returns the encoded length of n in bytes (zero for labels and
// non-emitting directives; padding length for alignment directives).
func (l *Layout) Len(n *ir.Node) int {
	if l.s.fragAt(n) == nil {
		return 0
	}
	return l.s.lenv[n.Index()]
}

// Bytes encodes an instruction node at its relaxed address (a branch
// tail in the form relaxation chose). It returns nil for labels,
// directives, nodes the layout does not cover and short branches whose
// internal target never resolved. The bytes are encoded on each call
// from the State's tables, so read them before the next Relax. An
// encoding whose length differs from the relaxed length is an internal
// error.
func (l *Layout) Bytes(n *ir.Node) ([]byte, error) {
	s := l.s
	f := s.fragAt(n)
	if f == nil || n.Kind != ir.NodeInst {
		return nil, nil
	}
	id := n.Index()
	ctx := encode.Ctx{Addr: f.start + s.off[id], SymAddr: s.symAddr}
	what := "instruction"
	if n == f.tail && f.tailKind == tailBranch {
		if _, ok := s.symAddr(f.tailSym); !ok && f.tailInternal && !f.forceLong {
			// Internal target that never resolved (a stale label
			// map): the reference never encodes such a branch.
			return nil, nil
		}
		ctx.ForceLong = f.forceLong
		what = "branch"
	}
	b, err := encode.Encode(n.Inst, &ctx)
	if err != nil {
		return nil, nodeErr(s.u, n, err)
	}
	if len(b) != s.lenv[id] {
		return nil, fmt.Errorf("relax: internal error: predicted %d-byte %s encoded to %d bytes (%v)",
			s.lenv[id], what, len(b), n.Inst)
	}
	return b, nil
}

// SymAddr resolves a label to its relaxed address (implements the
// encoder's resolver signature).
func (l *Layout) SymAddr(sym string) (int64, bool) { return l.s.symAddr(sym) }

// Options configures relaxation.
type Options struct {
	// MaxIterations caps the fixpoint loop; 0 means the MAO default
	// of 100.
	MaxIterations int
	// Base is the starting address of every section; sections are
	// laid out independently.
	Base int64
	// State, when non-nil, carries fragment state across Relax calls:
	// repeated relaxation of the same (possibly edited) unit rescans
	// only the fragments that changed. See State for the reuse and
	// invalidation protocol. When nil, Relax builds a throwaway State.
	State *State
}

// Relax computes the layout of every section of u. With opts.State set
// the call is incremental; otherwise it performs a full build.
func Relax(u *ir.Unit, opts *Options) (*Layout, error) {
	st := (*State)(nil)
	if opts != nil {
		st = opts.State
	}
	if st == nil {
		st = NewState()
	}
	return st.Relax(u, opts)
}

// nodeErr attributes a relaxation error to its node's source position:
// "relax: file:line: ..." when the parser stamped a line (PR 1),
// "relax: ..." for synthesized nodes.
func nodeErr(u *ir.Unit, n *ir.Node, err error) error {
	if n != nil && n.Line > 0 && u != nil {
		return fmt.Errorf("relax: %s:%d: %v", u.FileName, n.Line, err)
	}
	return fmt.Errorf("relax: %v", err)
}

// relaxTarget returns the branch target and whether the instruction's
// size depends on branch distance (jmp and jcc with direct targets;
// call is always rel32).
func relaxTarget(in *x86.Inst) (string, bool) {
	if in.Op != x86.OpJMP && in.Op != x86.OpJCC {
		return "", false
	}
	return in.BranchTarget()
}

// directiveSize returns the emitted size of a data/alignment directive
// at the given address. Non-emitting directives return 0. Errors are
// bare; callers attribute them with nodeErr.
func directiveSize(n *ir.Node, addr int64) (int, error) {
	d := n.Dir
	if w, ok := d.DataWidth(); ok {
		return w * len(d.Args), nil
	}
	switch d.Name {
	case ".zero", ".skip", ".space":
		if len(d.Args) == 0 {
			return 0, fmt.Errorf("%s without size", d.Name)
		}
		v, err := strconv.Atoi(strings.TrimSpace(d.Args[0]))
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad %s size %q", d.Name, d.Args[0])
		}
		return v, nil
	case ".ascii", ".string", ".asciz":
		total := 0
		for _, a := range d.Args {
			n, err := stringSize(a)
			if err != nil {
				return 0, err
			}
			total += n
			if d.Name != ".ascii" {
				total++ // trailing NUL
			}
		}
		return total, nil
	}
	if align, ok := n.IsAlignDirective(); ok {
		pad := int((int64(align) - addr%int64(align)) % int64(align))
		if max := n.AlignMax(); max >= 0 && pad > max {
			pad = 0
		}
		return pad, nil
	}
	return 0, nil
}

// stringSize returns the number of bytes a gas string literal (double
// quotes, C escapes) assembles to. As in GNU as, an escape is one byte:
// a backslash with the character after it, with up to three octal
// digits, or with an x and every hex digit after it.
func stringSize(s string) (int, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return 0, fmt.Errorf("bad string literal %s", s)
	}
	body := s[1 : len(s)-1]
	size := 0
	for i := 0; i < len(body); i++ {
		size++
		if body[i] != '\\' {
			continue
		}
		i++
		if i >= len(body) {
			return 0, fmt.Errorf("trailing backslash in %s", s)
		}
		switch c := body[i]; {
		case isOctal(c):
			for k := 1; k < 3 && i+1 < len(body) && isOctal(body[i+1]); k++ {
				i++
			}
		case c == 'x' || c == 'X':
			for i+1 < len(body) && isHex(body[i+1]) {
				i++
			}
		}
	}
	return size, nil
}

func isOctal(c byte) bool { return c >= '0' && c <= '7' }

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// Image assembles the final byte image of one section (instruction
// bytes from Bytes, data directives as zero placeholders, alignment as
// NOP-style 0x90 padding). It is primarily a testing and inspection
// aid; the optimizer itself only needs addresses and lengths.
func (l *Layout) Image(u *ir.Unit, section string) ([]byte, error) {
	img := make([]byte, l.SectionEnd[section])
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Section != section {
			continue
		}
		b, err := l.Bytes(n)
		if err != nil {
			return nil, err
		}
		if b != nil {
			copy(img[l.Addr(n):], b)
			continue
		}
		if _, ok := n.IsAlignDirective(); ok {
			for i := 0; i < l.Len(n); i++ {
				img[l.Addr(n)+int64(i)] = 0x90
			}
		}
	}
	return img, nil
}
