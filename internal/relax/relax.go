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
// O(fragments) integers per round instead of re-encoding O(nodes), and
// a reusable State re-partitions only the fragments an edit touched.
// Reference is the straight-line full-walk implementation the
// differential tests compare against.
package relax

import (
	"fmt"
	"strconv"
	"strings"

	"mao/internal/ir"
	"mao/internal/x86"
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

// Bytes returns the final encoding of an instruction node (nil for
// labels, directives and unresolved short branches).
func (l *Layout) Bytes(n *ir.Node) []byte {
	if l.s.fragAt(n) == nil {
		return nil
	}
	return l.s.byt[n.Index()]
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
	// Cache, when non-nil, memoizes position-independent instruction
	// encodings across iterations and across Relax calls.
	Cache *Cache
	// State, when non-nil, carries fragment state across Relax calls:
	// repeated relaxation of the same (possibly edited) unit rescans
	// only the fragments that changed and re-encodes only the bytes
	// whose addresses or targets moved. See State for the reuse and
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

// longLen is the rel32 form length of a relaxable branch: jmp is
// E9 imm32 (5 bytes), jcc is 0F 8x imm32 (6 bytes). The emit phase
// cross-checks every predicted size against the encoder's output, so
// these constants cannot drift silently.
func longLen(in *x86.Inst) int {
	if in.Op == x86.OpJCC {
		return 6
	}
	return 5
}

// directiveSize returns the emitted size of a data/alignment directive
// at the given address. Non-emitting directives return 0. Errors are
// bare; callers attribute them with nodeErr.
func directiveSize(n *ir.Node, addr int64) (int, error) {
	d := n.Dir
	switch d.Name {
	case ".byte":
		return len(d.Args), nil
	case ".word", ".value", ".short":
		return 2 * len(d.Args), nil
	case ".long", ".int":
		return 4 * len(d.Args), nil
	case ".quad", ".8byte":
		return 8 * len(d.Args), nil
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
			s, err := unquote(a)
			if err != nil {
				return 0, err
			}
			total += len(s)
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

// unquote decodes a gas string literal (double quotes, C escapes).
func unquote(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("bad string literal %s", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash in %s", s)
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case '\\', '"':
			b.WriteByte(body[i])
		default:
			b.WriteByte(body[i])
		}
	}
	return b.String(), nil
}

// Image assembles the final byte image of one section (instruction
// bytes, data directives as zero placeholders, alignment as NOP-style
// 0x90 padding). It is primarily a testing and inspection aid; the
// optimizer itself only needs addresses and lengths.
func (l *Layout) Image(u *ir.Unit, section string) []byte {
	size := l.SectionEnd[section]
	img := make([]byte, size)
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Section != section {
			continue
		}
		if b := l.Bytes(n); b != nil {
			copy(img[l.Addr(n):], b)
			continue
		}
		if _, ok := n.IsAlignDirective(); ok {
			for i := 0; i < l.Len(n); i++ {
				img[l.Addr(n)+int64(i)] = 0x90
			}
		}
	}
	return img
}
