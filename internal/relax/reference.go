package relax

import (
	"fmt"

	"mao/internal/ir"
	"mao/internal/x86/encode"
)

// RefLayout is the result of Reference: the same information as Layout
// but map-backed and self-contained (no State views), so it survives
// any later relaxation and can be diffed field by field.
type RefLayout struct {
	Addr       map[*ir.Node]int64
	Len        map[*ir.Node]int
	Bytes      map[*ir.Node][]byte
	SectionEnd map[string]int64
	Iterations int

	labelAddr map[string]int64
}

// SymAddr resolves a label to its relaxed address.
func (l *RefLayout) SymAddr(sym string) (int64, bool) {
	a, ok := l.labelAddr[sym]
	return a, ok
}

// Reference is the straight-line relaxation algorithm: every iteration
// walks and re-encodes the entire unit. It is kept as the oracle for
// the differential test suite — the fragment engine must produce
// byte- and address-identical layouts — and as the baseline for the
// repeated-relaxation benchmarks. Options.State is ignored.
func Reference(u *ir.Unit, opts *Options) (*RefLayout, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}

	l := &RefLayout{
		Addr:       make(map[*ir.Node]int64),
		Len:        make(map[*ir.Node]int),
		Bytes:      make(map[*ir.Node][]byte),
		SectionEnd: make(map[string]int64),
		labelAddr:  make(map[string]int64),
	}
	forceLong := make(map[*ir.Node]bool)

	resolver := func(sym string) (int64, bool) {
		a, ok := l.labelAddr[sym]
		return a, ok
	}

	for iter := 1; ; iter++ {
		if iter > o.MaxIterations {
			return nil, fmt.Errorf("relax: no fixpoint after %d iterations", o.MaxIterations)
		}
		l.Iterations = iter

		cursor := make(map[string]int64) // per-section location counter
		newLabels := make(map[string]int64)
		grew := false

		for n := u.List.Front(); n != nil; n = n.Next() {
			sec := n.Section
			addr, ok := cursor[sec]
			if !ok {
				addr = o.Base
			}
			l.Addr[n] = addr

			size := 0
			switch n.Kind {
			case ir.NodeLabel:
				newLabels[n.Label] = addr
			case ir.NodeDirective:
				var err error
				size, err = directiveSize(n, addr)
				if err != nil {
					return nil, nodeErr(u, n, err)
				}
			case ir.NodeInst:
				// Grow-only sizing: a relaxable branch to an internal
				// label starts short (2 bytes) while the label's
				// address is still unknown; once known, the encoder
				// picks short or long by fit, and a long choice is
				// made sticky so sizes never shrink across iterations
				// (the property that guarantees termination).
				if tgt, relaxable := relaxTarget(n.Inst); relaxable && !forceLong[n] {
					if _, known := l.labelAddr[tgt]; !known && u.FindLabel(tgt) != nil {
						size = 2
						l.Len[n] = size
						cursor[sec] = addr + int64(size)
						continue
					}
				}
				ctx := &encode.Ctx{Addr: addr, SymAddr: resolver, ForceLong: forceLong[n]}
				b, err := encode.Encode(n.Inst, ctx)
				if err != nil {
					return nil, nodeErr(u, n, err)
				}
				size = len(b)
				l.Bytes[n] = b
				if _, relaxable := relaxTarget(n.Inst); relaxable && size > 2 && !forceLong[n] {
					forceLong[n] = true
					grew = true
				}
			}
			l.Len[n] = size
			cursor[sec] = addr + int64(size)
		}

		stable := !grew && len(newLabels) == len(l.labelAddr)
		if stable {
			for k, v := range newLabels {
				if l.labelAddr[k] != v {
					stable = false
					break
				}
			}
		}
		l.labelAddr = newLabels
		for sec, end := range cursor {
			l.SectionEnd[sec] = end
		}
		if stable {
			return l, nil
		}
	}
}
