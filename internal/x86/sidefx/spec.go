// Package sidefx models instruction side effects: which operands are
// read and written, which implicit registers participate, and which
// RFLAGS bits are set, read, or left undefined.
//
// Like the original MAO, the model is table-driven: a tiny
// configuration language (sidefx.cfg) specifies the effects per
// opcode, and a generator program (cmd/sidefxgen) constructs Go tables
// from it. The committed tables.gen.go is the generator's output; a
// test asserts it stays in sync with the embedded configuration.
package sidefx

import (
	"mao/internal/x86"
)

//go:generate go run mao/cmd/sidefxgen -in sidefx.cfg -out tables.gen.go

// Spec is the static side-effect specification for one opcode (at one
// arity). Operand indices are 1-based positions in AT&T order.
type Spec struct {
	Reads  []int // operand positions read
	Writes []int // operand positions written

	ImpReads  []x86.Reg // implicit register reads
	ImpWrites []x86.Reg // implicit register writes

	FlagsSet   x86.Flags // flags written with defined values
	FlagsRead  x86.Flags // flags read unconditionally
	FlagsUndef x86.Flags // flags left undefined (written with junk)
	CondRead   bool      // additionally reads the instruction's Cond flags

	// Barrier marks instructions the data-flow layer must treat as
	// reading and writing every register and all of memory (calls,
	// returns — the function-boundary conservative assumption).
	Barrier bool
}

// Effects is the resolved side-effect set of one concrete instruction.
type Effects struct {
	RegsRead    []x86.Reg // registers read, including address components
	RegsWritten []x86.Reg // registers written

	FlagsSet   x86.Flags
	FlagsRead  x86.Flags
	FlagsUndef x86.Flags

	MemRead  bool
	MemWrite bool

	Barrier bool
}

// WritesFlags reports whether the instruction defines or clobbers any
// flag bit.
func (e Effects) WritesFlags() bool { return e.FlagsSet|e.FlagsUndef != 0 }

// ReadsReg reports whether the effect set reads any register aliasing r.
func (e Effects) ReadsReg(r x86.Reg) bool { return containsFamily(e.RegsRead, r) }

// WritesReg reports whether the effect set writes any register aliasing r.
func (e Effects) WritesReg(r x86.Reg) bool { return containsFamily(e.RegsWritten, r) }

func containsFamily(rs []x86.Reg, r x86.Reg) bool {
	f := r.Family()
	for _, x := range rs {
		if x.Family() == f {
			return true
		}
	}
	return false
}

// maxCachedArity bounds the dense (opcode, arity) resolution cache; no
// x86 instruction this front end accepts has more than three operands.
const maxCachedArity = 4

type cachedSpec struct {
	s  Spec
	ok bool
}

// specCache resolves (opcode, arity) → Spec without per-call string
// building: the "name/arity" and bare-name lookups of specFor, run
// once per combination at package init. InstEffects sits on the hot
// path of every data-flow analysis, so the lookup must be an array
// index.
var specCache = func() [x86.NumOps][maxCachedArity + 1]cachedSpec {
	var t [x86.NumOps][maxCachedArity + 1]cachedSpec
	for op := 1; op < x86.NumOps; op++ {
		name := x86.Op(op).String()
		for ar := 0; ar <= maxCachedArity; ar++ {
			if s, ok := genTable[specKey(name, ar)]; ok {
				t[op][ar] = cachedSpec{s, true}
				continue
			}
			if s, ok := genTable[name]; ok {
				t[op][ar] = cachedSpec{s, true}
			}
		}
	}
	return t
}()

// specFor finds the Spec for an instruction: first "name/arity", then
// the bare opcode name. The result must not be modified.
func specFor(in *x86.Inst) (*Spec, bool) {
	if op, ar := int(in.Op), len(in.Args); op > 0 && op < x86.NumOps && ar <= maxCachedArity {
		e := &specCache[op][ar]
		return &e.s, e.ok
	}
	name := in.Op.String()
	if s, ok := genTable[specKey(name, len(in.Args))]; ok {
		return &s, true
	}
	s, ok := genTable[name]
	return &s, ok
}

func specKey(name string, arity int) string {
	return name + "/" + string(rune('0'+arity))
}

// Known reports whether the side-effect tables cover the instruction.
func Known(in *x86.Inst) bool {
	_, ok := specFor(in)
	return ok
}

// InstEffects resolves the side effects of one concrete instruction.
// Instructions missing from the tables resolve to a Barrier effect so
// that analyses stay conservative rather than wrong. The register
// slices are allocated at their exact capacity; AppendEffects resolves
// without allocating.
func InstEffects(in *x86.Inst) Effects {
	spec, ok := specFor(in)
	if !ok {
		return Effects{Barrier: true}
	}
	var reads, writes []x86.Reg
	if rcap := len(spec.ImpReads) + 2*len(in.Args) + len(spec.Reads); rcap > 0 {
		reads = make([]x86.Reg, 0, rcap)
	}
	if wcap := len(spec.ImpWrites) + len(spec.Writes); wcap > 0 {
		writes = make([]x86.Reg, 0, wcap)
	}
	return resolve(in, spec, reads, writes)
}

// AppendEffects resolves the side effects of in as InstEffects does,
// appending the registers read to reads and those written to writes:
// the result's RegsRead and RegsWritten are the extended slices. It
// allocates only to grow them, so a caller passing stack buffers with
// room resolves without allocating.
func AppendEffects(in *x86.Inst, reads, writes []x86.Reg) Effects {
	spec, ok := specFor(in)
	if !ok {
		return Effects{RegsRead: reads, RegsWritten: writes, Barrier: true}
	}
	return resolve(in, spec, reads, writes)
}

// resolve is the one resolver behind InstEffects and AppendEffects.
func resolve(in *x86.Inst, spec *Spec, reads, writes []x86.Reg) Effects {
	e := Effects{
		RegsRead:    append(reads, spec.ImpReads...),
		RegsWritten: append(writes, spec.ImpWrites...),
		Barrier:     spec.Barrier,
		FlagsSet:    spec.FlagsSet,
		FlagsRead:   spec.FlagsRead,
		FlagsUndef:  spec.FlagsUndef,
	}
	if spec.CondRead {
		e.FlagsRead |= in.Cond.FlagsRead()
	}

	addRead := func(r x86.Reg) {
		if r != x86.RegNone && r != x86.RIP {
			e.RegsRead = append(e.RegsRead, r)
		}
	}

	// Address components of every memory operand are read regardless
	// of the operand's data role.
	for _, a := range in.Args {
		if a.Kind == x86.KindMem {
			addRead(a.Mem.Base)
			addRead(a.Mem.Index)
		}
		if a.Star && a.Kind == x86.KindReg {
			addRead(a.Reg)
		}
	}

	for _, idx := range spec.Reads {
		if idx < 1 || idx > len(in.Args) {
			continue
		}
		a := in.Args[idx-1]
		switch a.Kind {
		case x86.KindReg:
			addRead(a.Reg)
		case x86.KindMem:
			e.MemRead = true
		}
	}
	for _, idx := range spec.Writes {
		if idx < 1 || idx > len(in.Args) {
			continue
		}
		a := in.Args[idx-1]
		switch a.Kind {
		case x86.KindReg:
			if !a.Star {
				e.RegsWritten = append(e.RegsWritten, a.Reg)
			}
		case x86.KindMem:
			e.MemWrite = true
		}
	}

	// Instruction-level refinements the static table cannot express.
	switch in.Op {
	case x86.OpPUSH, x86.OpCALL:
		e.MemWrite = true // stack store
	case x86.OpPOP, x86.OpRET:
		e.MemRead = true // stack load
	case x86.OpLEAVE:
		e.MemRead = true
	case x86.OpSHL, x86.OpSHR, x86.OpSAR, x86.OpROL, x86.OpROR:
		// A zero shift count leaves every flag unchanged, so for a
		// variable (%cl) count no flag is reliably defined.
		if len(in.Args) == 2 && in.Args[0].Kind == x86.KindReg {
			e.FlagsUndef |= e.FlagsSet
			e.FlagsSet = 0
		}
	}
	return e
}
