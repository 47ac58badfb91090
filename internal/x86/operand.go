package x86

import "strconv"

// OperandKind discriminates the Operand union.
type OperandKind uint8

// Operand kinds.
const (
	KindNone  OperandKind = iota
	KindImm               // $42
	KindReg               // %rax
	KindMem               // 8(%rsp,%rdi,4), sym(%rip), ...
	KindLabel             // direct branch/call target: .L5, printf
)

// Operand is one instruction operand. Exactly the fields relevant to
// Kind are meaningful. Operands are small value types; instructions
// hold them by value so that copying an Inst deep-copies its operands.
//
// Kind, Star and Reg come first so they share one word, which keeps
// the struct at 72 bytes (TestOperandSize): every parse, clone and
// operand copy moves it.
type Operand struct {
	Kind OperandKind

	// Star marks AT&T indirect call/jump targets (*%rax, *(%rax)):
	// the operand (register or memory) holds the target address.
	Star bool

	Reg Reg    // KindReg
	Imm int64  // KindImm
	Mem Mem    // KindMem
	Sym string // KindLabel: target symbol
	Off int64  // KindLabel: constant addend (sym+8)
}

// Mem describes an x86 memory reference disp(base,index,scale),
// possibly with a symbolic displacement and possibly RIP-relative.
type Mem struct {
	Disp    int64
	Sym     string // symbolic displacement: sym or sym+Disp
	Base    Reg    // RegNone if absent; RIP for RIP-relative
	Index   Reg    // RegNone if absent
	Scale   uint8  // 1, 2, 4, 8 (0 treated as 1)
	Segment Reg    // reserved; always RegNone in this implementation
}

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// MemOp returns a memory operand.
func MemOp(m Mem) Operand { return Operand{Kind: KindMem, Mem: m} }

// LabelOp returns a direct branch-target operand.
func LabelOp(sym string) Operand { return Operand{Kind: KindLabel, Sym: sym} }

// IsReg reports whether the operand is the given register.
func (o Operand) IsReg(r Reg) bool { return o.Kind == KindReg && o.Reg == r }

// IsImm reports whether the operand is the given immediate.
func (o Operand) IsImm(v int64) bool { return o.Kind == KindImm && o.Imm == v }

// String renders the operand in AT&T syntax.
func (o Operand) String() string {
	return string(o.AppendTo(make([]byte, 0, 64)))
}

// AppendTo appends the operand in AT&T syntax to dst and returns the
// extended buffer. It allocates only to grow dst.
func (o Operand) AppendTo(dst []byte) []byte {
	switch o.Kind {
	case KindNone:
		return append(dst, "<none>"...)
	case KindImm:
		return strconv.AppendInt(append(dst, '$'), o.Imm, 10)
	}
	if o.Star {
		dst = append(dst, '*')
	}
	switch o.Kind {
	case KindReg:
		dst = o.Reg.appendATT(dst)
	case KindMem:
		dst = o.Mem.AppendTo(dst)
	case KindLabel:
		dst = append(dst, o.Sym...)
		if o.Off != 0 {
			dst = appendSigned(dst, o.Off)
		}
	}
	return dst
}

// String renders the memory reference in AT&T syntax.
func (m Mem) String() string {
	return string(m.AppendTo(make([]byte, 0, 64)))
}

// AppendTo appends the memory reference in AT&T syntax to dst and
// returns the extended buffer. It allocates only to grow dst.
func (m Mem) AppendTo(dst []byte) []byte {
	if m.Sym != "" {
		dst = append(dst, m.Sym...)
		if m.Disp != 0 {
			dst = appendSigned(dst, m.Disp)
		}
	} else if m.Disp != 0 || (m.Base == RegNone && m.Index == RegNone) {
		dst = strconv.AppendInt(dst, m.Disp, 10)
	}
	if m.Base != RegNone || m.Index != RegNone {
		dst = append(dst, '(')
		if m.Base != RegNone {
			dst = m.Base.appendATT(dst)
		}
		if m.Index != RegNone {
			dst = append(dst, ',')
			dst = m.Index.appendATT(dst)
			dst = append(dst, ',')
			dst = strconv.AppendUint(dst, uint64(m.EffScale()), 10)
		}
		dst = append(dst, ')')
	}
	return dst
}

// appendSigned appends v with an explicit sign, as fmt's %+d does.
func appendSigned(dst []byte, v int64) []byte {
	if v >= 0 {
		dst = append(dst, '+')
	}
	return strconv.AppendInt(dst, v, 10)
}

// EffScale returns the effective index scale, normalizing 0 to 1.
func (m Mem) EffScale() uint8 {
	if m.Scale == 0 {
		return 1
	}
	return m.Scale
}

// IsRIPRel reports whether the reference is RIP-relative.
func (m Mem) IsRIPRel() bool { return m.Base == RIP }
