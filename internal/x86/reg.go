// Package x86 defines the register, operand, opcode and condition-code
// model shared by every layer of MAO: the assembly parser, the binary
// encoder, the side-effect tables, the data-flow analyses and the
// micro-architectural simulator.
//
// The design mirrors the original MAO's use of a single instruction
// struct for every x86 instruction (there, gas' internal C struct; here,
// Inst): all passes manipulate the same concrete representation, so a
// pass written against this package works on anything the parser
// accepts.
package x86

import "fmt"

// Reg names an architectural register. The zero value RegNone means
// "no register" (e.g. an absent index register in a memory operand).
type Reg uint16

// General-purpose register encodings. The order within each width group
// follows the hardware encoding (rax=0, rcx=1, ... r15=15), so
// Reg.Num() can be computed by subtraction.
const (
	RegNone Reg = iota

	// 64-bit GPRs.
	RAX
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// 32-bit GPRs.
	EAX
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	R8D
	R9D
	R10D
	R11D
	R12D
	R13D
	R14D
	R15D

	// 16-bit GPRs.
	AX
	CX
	DX
	BX
	SP
	BP
	SI
	DI
	R8W
	R9W
	R10W
	R11W
	R12W
	R13W
	R14W
	R15W

	// 8-bit low GPRs (REX-compatible set).
	AL
	CL
	DL
	BL
	SPL
	BPL
	SIL
	DIL
	R8B
	R9B
	R10B
	R11B
	R12B
	R13B
	R14B
	R15B

	// 8-bit high legacy registers (not addressable with a REX prefix).
	AH
	CH
	DH
	BH

	// SSE registers.
	XMM0
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15

	// Instruction pointer (only valid as a memory-operand base).
	RIP

	// RFLAGS pseudo-register, used by the data-flow layer to model
	// condition-code dependences uniformly with register dependences.
	RFLAGS

	numRegs
)

// NumRegs is one past the largest register encoding — the size for
// dense per-register tables.
const NumRegs = int(numRegs)

// Width is an operand width in bytes: 1, 2, 4, 8, or 16 for XMM.
type Width uint8

// Operand widths.
const (
	W0   Width = 0 // unknown/none
	W8   Width = 1
	W16  Width = 2
	W32  Width = 4
	W64  Width = 8
	W128 Width = 16
)

var regNames = map[Reg]string{
	RAX: "rax", RCX: "rcx", RDX: "rdx", RBX: "rbx",
	RSP: "rsp", RBP: "rbp", RSI: "rsi", RDI: "rdi",
	R8: "r8", R9: "r9", R10: "r10", R11: "r11",
	R12: "r12", R13: "r13", R14: "r14", R15: "r15",

	EAX: "eax", ECX: "ecx", EDX: "edx", EBX: "ebx",
	ESP: "esp", EBP: "ebp", ESI: "esi", EDI: "edi",
	R8D: "r8d", R9D: "r9d", R10D: "r10d", R11D: "r11d",
	R12D: "r12d", R13D: "r13d", R14D: "r14d", R15D: "r15d",

	AX: "ax", CX: "cx", DX: "dx", BX: "bx",
	SP: "sp", BP: "bp", SI: "si", DI: "di",
	R8W: "r8w", R9W: "r9w", R10W: "r10w", R11W: "r11w",
	R12W: "r12w", R13W: "r13w", R14W: "r14w", R15W: "r15w",

	AL: "al", CL: "cl", DL: "dl", BL: "bl",
	SPL: "spl", BPL: "bpl", SIL: "sil", DIL: "dil",
	R8B: "r8b", R9B: "r9b", R10B: "r10b", R11B: "r11b",
	R12B: "r12b", R13B: "r13b", R14B: "r14b", R15B: "r15b",

	AH: "ah", CH: "ch", DH: "dh", BH: "bh",

	XMM0: "xmm0", XMM1: "xmm1", XMM2: "xmm2", XMM3: "xmm3",
	XMM4: "xmm4", XMM5: "xmm5", XMM6: "xmm6", XMM7: "xmm7",
	XMM8: "xmm8", XMM9: "xmm9", XMM10: "xmm10", XMM11: "xmm11",
	XMM12: "xmm12", XMM13: "xmm13", XMM14: "xmm14", XMM15: "xmm15",

	RIP: "rip", RFLAGS: "rflags",
}

var regByName map[string]Reg

func init() {
	regByName = make(map[string]Reg, len(regNames))
	for r, n := range regNames {
		regByName[n] = r
	}
}

// RegByName returns the register with the given AT&T name (without the
// '%' sigil), e.g. "rax" or "xmm3". It returns RegNone, false if the
// name is unknown.
func RegByName(name string) (Reg, bool) {
	r, ok := regByName[name]
	return r, ok
}

// String returns the bare register name without the AT&T '%' sigil.
func (r Reg) String() string {
	if n, ok := regNames[r]; ok {
		return n
	}
	return fmt.Sprintf("reg(%d)", uint16(r))
}

// ATT returns the AT&T-syntax spelling of the register, e.g. "%rax".
func (r Reg) ATT() string {
	return string(r.appendATT(make([]byte, 0, 16)))
}

// appendATT appends the register's AT&T-syntax spelling to dst.
func (r Reg) appendATT(dst []byte) []byte {
	return append(append(dst, '%'), r.String()...)
}

// IsGPR reports whether r is a general-purpose register of any width.
func (r Reg) IsGPR() bool { return r >= RAX && r <= BH }

// IsXMM reports whether r is an SSE register.
func (r Reg) IsXMM() bool { return r >= XMM0 && r <= XMM15 }

// Width returns the operand width of the register.
func (r Reg) Width() Width {
	switch {
	case r >= RAX && r <= R15:
		return W64
	case r >= EAX && r <= R15D:
		return W32
	case r >= AX && r <= R15W:
		return W16
	case r >= AL && r <= BH:
		return W8
	case r.IsXMM():
		return W128
	case r == RIP:
		return W64
	default:
		return W0
	}
}

// Num returns the 4-bit hardware encoding number of the register
// (0..15). The caller is responsible for placing bit 3 into the
// appropriate REX field. Num panics on registers without a hardware
// number (RegNone, RFLAGS).
func (r Reg) Num() int {
	switch {
	case r >= RAX && r <= R15:
		return int(r - RAX)
	case r >= EAX && r <= R15D:
		return int(r - EAX)
	case r >= AX && r <= R15W:
		return int(r - AX)
	case r >= AL && r <= R15B:
		return int(r - AL)
	case r >= AH && r <= BH:
		return int(r-AH) + 4 // ah=4, ch=5, dh=6, bh=7
	case r.IsXMM():
		return int(r - XMM0)
	}
	panic(fmt.Sprintf("x86: register %v has no hardware number", r))
}

// Family returns the canonical 64-bit register that r aliases, e.g.
// Family(EAX) == Family(AL) == RAX. XMM registers are their own family.
// Registers without aliasing families (RIP, RFLAGS, RegNone) return
// themselves. The data-flow layer treats any two registers of the same
// family as overlapping.
func (r Reg) Family() Reg {
	switch {
	case r >= RAX && r <= R15:
		return r
	case r >= EAX && r <= R15D:
		return r - EAX + RAX
	case r >= AX && r <= R15W:
		return r - AX + RAX
	case r >= AL && r <= R15B:
		return r - AL + RAX
	case r >= AH && r <= BH:
		return r - AH + RAX // ah aliases rax, etc.
	default:
		return r
	}
}

// WithWidth returns the register of the same family with the given
// width, e.g. RAX.WithWidth(W32) == EAX. It panics for widths the
// family does not support.
func (r Reg) WithWidth(w Width) Reg {
	f := r.Family()
	if f >= RAX && f <= R15 {
		switch w {
		case W64:
			return f
		case W32:
			return f - RAX + EAX
		case W16:
			return f - RAX + AX
		case W8:
			return f - RAX + AL
		}
	}
	if r.IsXMM() && w == W128 {
		return r
	}
	panic(fmt.Sprintf("x86: no %d-byte form of register %v", w, r))
}

// NeedsREX reports whether using this register forces a REX prefix:
// the extended registers r8..r15 (any width) and the uniform byte
// registers spl/bpl/sil/dil.
func (r Reg) NeedsREX() bool {
	if r >= SPL && r <= DIL {
		return true
	}
	switch {
	case r >= R8 && r <= R15,
		r >= R8D && r <= R15D,
		r >= R8W && r <= R15W,
		r >= R8B && r <= R15B,
		r >= XMM8 && r <= XMM15:
		return true
	}
	return false
}

// IsHighByte reports whether r is one of the legacy high-byte registers
// (ah/ch/dh/bh), which cannot be encoded in an instruction carrying a
// REX prefix.
func (r Reg) IsHighByte() bool { return r >= AH && r <= BH }

// GPR64 lists the sixteen 64-bit general-purpose registers in hardware
// encoding order.
var GPR64 = []Reg{RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI, R8, R9, R10, R11, R12, R13, R14, R15}
