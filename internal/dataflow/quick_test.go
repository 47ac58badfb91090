package dataflow

import (
	"testing"
	"testing/quick"

	"mao/internal/x86"
)

// TestRegSetProperties: set algebra over register families.
func TestRegSetProperties(t *testing.T) {
	regs := []x86.Reg{x86.RAX, x86.EAX, x86.AX, x86.AL, x86.AH, x86.RBX,
		x86.R8, x86.R8D, x86.R15B, x86.XMM0, x86.XMM15, x86.ESI}

	// Add/Has respect family aliasing.
	addHas := func(i, j uint8) bool {
		a := regs[int(i)%len(regs)]
		b := regs[int(j)%len(regs)]
		var s RegSet
		s.Add(a)
		if a.Family() == b.Family() {
			return s.Has(b)
		}
		return !s.Has(b)
	}
	if err := quick.Check(addHas, nil); err != nil {
		t.Error(err)
	}

	// Remove undoes Add.
	addRemove := func(i uint8) bool {
		r := regs[int(i)%len(regs)]
		var s RegSet
		s.Add(r)
		s.Remove(r)
		return s == 0
	}
	if err := quick.Check(addRemove, nil); err != nil {
		t.Error(err)
	}

	// Union is commutative and idempotent.
	union := func(a, b uint64) bool {
		x, y := RegSet(a)&allRegs, RegSet(b)&allRegs
		return x.Union(y) == y.Union(x) && x.Union(x) == x
	}
	if err := quick.Check(union, nil); err != nil {
		t.Error(err)
	}
}

// TestBitvecProperties: the packed bit vector behind reaching defs.
func TestBitvecProperties(t *testing.T) {
	setHasAndNot := func(idxs []uint16) bool {
		v := make(bitvec, 1<<16/64)
		for _, raw := range idxs {
			v.set(int(raw))
		}
		for _, raw := range idxs {
			if !v.has(int(raw)) {
				return false
			}
		}
		v.andNot(append(bitvec(nil), v...))
		for _, raw := range idxs {
			if v.has(int(raw)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(setHasAndNot, nil); err != nil {
		t.Error(err)
	}

	// or() is monotone and reports change correctly.
	orMonotone := func(a, b []uint64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x := bitvec(append([]uint64(nil), a[:n]...))
		y := bitvec(b[:n])
		before := append(bitvec(nil), x...)
		changed := x.or(y)
		for i := range x {
			if x[i] != before[i]|y[i] {
				return false
			}
		}
		// changed iff some word grew.
		grew := false
		for i := range x {
			if x[i] != before[i] {
				grew = true
			}
		}
		return changed == grew
	}
	if err := quick.Check(orMonotone, nil); err != nil {
		t.Error(err)
	}
}
