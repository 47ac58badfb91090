package encode

import (
	"fmt"

	"mao/internal/x86"
)

// aluInfo describes the classic two-operand ALU group whose encodings
// share a regular structure: /digit selects the operation in the
// 80/81/83 immediate forms, and base is the 00-3F opcode row.
var aluInfo = map[x86.Op]struct {
	digit byte // /digit for 80/81/83 forms
	base  byte // opcode row: base+0 r8, +1 rv, +2/+3 RM forms
}{
	x86.OpADD: {0, 0x00},
	x86.OpOR:  {1, 0x08},
	x86.OpADC: {2, 0x10},
	x86.OpSBB: {3, 0x18},
	x86.OpAND: {4, 0x20},
	x86.OpSUB: {5, 0x28},
	x86.OpXOR: {6, 0x30},
	x86.OpCMP: {7, 0x38},
}

var shiftDigit = map[x86.Op]byte{
	x86.OpROL: 0, x86.OpROR: 1, x86.OpSHL: 4, x86.OpSHR: 5, x86.OpSAR: 7,
}

var group3Digit = map[x86.Op]byte{
	x86.OpNOT: 2, x86.OpNEG: 3, x86.OpMUL: 4, x86.OpIMUL: 5,
	x86.OpDIV: 6, x86.OpIDIV: 7,
}

// sseInfo describes the regular xmm <- xmm/m SSE arithmetic forms:
// mandatory prefix (0 = none) and the 0F xx opcode.
var sseInfo = map[x86.Op]struct {
	prefix byte
	opc    byte
}{
	x86.OpADDSS: {0xF3, 0x58}, x86.OpADDSD: {0xF2, 0x58},
	x86.OpSUBSS: {0xF3, 0x5C}, x86.OpSUBSD: {0xF2, 0x5C},
	x86.OpMULSS: {0xF3, 0x59}, x86.OpMULSD: {0xF2, 0x59},
	x86.OpDIVSS: {0xF3, 0x5E}, x86.OpDIVSD: {0xF2, 0x5E},
	x86.OpSQRTSS: {0xF3, 0x51}, x86.OpSQRTSD: {0xF2, 0x51},
	x86.OpXORPS: {0, 0x57}, x86.OpXORPD: {0x66, 0x57},
	x86.OpANDPS: {0, 0x54}, x86.OpANDPD: {0x66, 0x54},
	x86.OpUCOMISS: {0, 0x2E}, x86.OpUCOMISD: {0x66, 0x2E},
	x86.OpCOMISS: {0, 0x2F}, x86.OpCOMISD: {0x66, 0x2F},
	x86.OpCVTSS2SD: {0xF3, 0x5A}, x86.OpCVTSD2SS: {0xF2, 0x5A},
	x86.OpPXOR: {0x66, 0xEF},
}

var prefetchDigit = map[x86.Op]byte{
	x86.OpPREFETCHNTA: 0, x86.OpPREFETCHT0: 1,
	x86.OpPREFETCHT1: 2, x86.OpPREFETCHT2: 3,
}

func (e *enc) unsupported() error {
	return fmt.Errorf("encode: unsupported instruction form: %s", e.in)
}

func (e *enc) wantArgs(n int) error {
	if len(e.in.Args) != n {
		return fmt.Errorf("encode: %s: want %d operands, have %d", e.in, n, len(e.in.Args))
	}
	return nil
}

// encode dispatches on the opcode and operand shapes.
func (e *enc) encode() error {
	in := e.in
	if in.Lock {
		e.prefix(0xF0)
	}
	switch in.Op {
	case x86.OpMOV, x86.OpMOVABS:
		return e.encodeMOV()
	case x86.OpMOVZX, x86.OpMOVSX:
		return e.encodeMOVX()
	case x86.OpLEA:
		return e.encodeLEA()
	case x86.OpPUSH, x86.OpPOP:
		return e.encodePushPop()
	case x86.OpXCHG:
		return e.encodeXCHG()
	case x86.OpCMOV:
		return e.encodeCMOV()
	case x86.OpADD, x86.OpOR, x86.OpADC, x86.OpSBB,
		x86.OpAND, x86.OpSUB, x86.OpXOR, x86.OpCMP:
		return e.encodeALU()
	case x86.OpINC, x86.OpDEC:
		return e.encodeIncDec()
	case x86.OpNOT, x86.OpNEG, x86.OpMUL, x86.OpIDIV, x86.OpDIV:
		return e.encodeGroup3()
	case x86.OpIMUL:
		return e.encodeIMUL()
	case x86.OpTEST:
		return e.encodeTEST()
	case x86.OpSHL, x86.OpSHR, x86.OpSAR, x86.OpROL, x86.OpROR:
		return e.encodeShift()
	case x86.OpJMP, x86.OpJCC, x86.OpCALL:
		return e.encodeBranch()
	case x86.OpRET:
		e.op(0xC3)
		return nil
	case x86.OpLEAVE:
		e.op(0xC9)
		return nil
	case x86.OpSET:
		return e.encodeSET()
	case x86.OpCLTQ:
		e.rexBit(8)
		e.op(0x98)
		return nil
	case x86.OpCWTL:
		e.op(0x98)
		return nil
	case x86.OpCLTD:
		e.op(0x99)
		return nil
	case x86.OpCQTO:
		e.rexBit(8)
		e.op(0x99)
		return nil
	case x86.OpNOP:
		return e.encodeNOP()
	case x86.OpUD2:
		e.op(0x0F, 0x0B)
		return nil
	case x86.OpHLT:
		e.op(0xF4)
		return nil
	case x86.OpPAUSE:
		e.prefix(0xF3)
		e.op(0x90)
		return nil
	case x86.OpPREFETCHNTA, x86.OpPREFETCHT0, x86.OpPREFETCHT1, x86.OpPREFETCHT2:
		if err := e.wantArgs(1); err != nil {
			return err
		}
		if e.in.Args[0].Kind != x86.KindMem {
			return e.unsupported()
		}
		e.op(0x0F, 0x18)
		return e.memModRM(prefetchDigit[in.Op], e.in.Args[0].Mem)
	case x86.OpMOVSS, x86.OpMOVSD, x86.OpMOVAPS, x86.OpMOVUPS,
		x86.OpMOVDQA, x86.OpMOVDQU:
		return e.encodeSSEMove()
	case x86.OpMOVD, x86.OpMOVQX:
		return e.encodeMOVDQ()
	case x86.OpCVTSI2SS, x86.OpCVTSI2SD:
		return e.encodeCVTToSSE()
	case x86.OpCVTTSS2SI, x86.OpCVTTSD2SI:
		return e.encodeCVTToGPR()
	default:
		if info, ok := sseInfo[in.Op]; ok {
			return e.encodeSSEArith(info.prefix, info.opc)
		}
	}
	return e.unsupported()
}

func (e *enc) encodeMOV() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	w := e.in.Width

	if src.Kind == x86.KindImm || (src.Kind == x86.KindImm && src.Sym != "") {
		if src.Sym != "" {
			return e.unsupported() // symbolic immediates need relocations
		}
		v := src.Imm
		if dst.Kind == x86.KindReg {
			if err := e.useReg(dst.Reg, 1); err != nil {
				return err
			}
			switch w {
			case x86.W8:
				e.op(0xB0 + byte(dst.Reg.Num()&7))
				e.imm8(v)
			case x86.W16:
				e.prefix(0x66)
				e.op(0xB8 + byte(dst.Reg.Num()&7))
				e.imm16(v)
			case x86.W32:
				e.op(0xB8 + byte(dst.Reg.Num()&7))
				e.imm32(v)
			case x86.W64:
				if e.in.Op == x86.OpMOVABS || !fitsInt32(v) {
					e.rexBit(8)
					e.op(0xB8 + byte(dst.Reg.Num()&7))
					e.imm64(v)
				} else {
					e.rexBit(8)
					e.op(0xC7)
					if err := e.regDirect(0, dst.Reg); err != nil {
						return err
					}
					e.imm32(v)
				}
			default:
				return e.unsupported()
			}
			return nil
		}
		if dst.Kind == x86.KindMem {
			e.widthPrefixREX(w)
			if w == x86.W8 {
				e.op(0xC6)
			} else {
				e.op(0xC7)
			}
			if err := e.memModRM(0, dst.Mem); err != nil {
				return err
			}
			switch w {
			case x86.W8:
				e.imm8(v)
			case x86.W16:
				e.imm16(v)
			case x86.W32, x86.W64:
				if !fitsInt32(v) {
					return fmt.Errorf("encode: %s: immediate does not fit imm32", e.in)
				}
				e.imm32(v)
			default:
				return e.unsupported()
			}
			return nil
		}
		return e.unsupported()
	}

	// mov r, r/m (MR) — gas' choice for register-to-register.
	if src.Kind == x86.KindReg && src.Reg.IsGPR() {
		e.widthPrefixREX(w)
		if err := e.useReg(src.Reg, 4); err != nil {
			return err
		}
		if w == x86.W8 {
			e.op(0x88)
		} else {
			e.op(0x89)
		}
		return e.rmOperand(byte(src.Reg.Num()), dst)
	}
	// mov r/m, r (RM).
	if dst.Kind == x86.KindReg && dst.Reg.IsGPR() && src.Kind == x86.KindMem {
		e.widthPrefixREX(w)
		if err := e.useReg(dst.Reg, 4); err != nil {
			return err
		}
		if w == x86.W8 {
			e.op(0x8A)
		} else {
			e.op(0x8B)
		}
		return e.rmOperand(byte(dst.Reg.Num()), src)
	}
	return e.unsupported()
}

func (e *enc) encodeMOVX() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	if dst.Kind != x86.KindReg {
		return e.unsupported()
	}
	e.widthPrefixREX(e.in.Width)
	if err := e.useReg(dst.Reg, 4); err != nil {
		return err
	}
	switch {
	case e.in.Op == x86.OpMOVZX && e.in.SrcWidth == x86.W8:
		e.op(0x0F, 0xB6)
	case e.in.Op == x86.OpMOVZX && e.in.SrcWidth == x86.W16:
		e.op(0x0F, 0xB7)
	case e.in.Op == x86.OpMOVSX && e.in.SrcWidth == x86.W8:
		e.op(0x0F, 0xBE)
	case e.in.Op == x86.OpMOVSX && e.in.SrcWidth == x86.W16:
		e.op(0x0F, 0xBF)
	case e.in.Op == x86.OpMOVSX && e.in.SrcWidth == x86.W32:
		e.op(0x63) // movslq
	default:
		return e.unsupported()
	}
	return e.rmOperand(byte(dst.Reg.Num()), src)
}

func (e *enc) encodeLEA() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	if src.Kind != x86.KindMem || dst.Kind != x86.KindReg {
		return e.unsupported()
	}
	e.widthPrefixREX(e.in.Width)
	if err := e.useReg(dst.Reg, 4); err != nil {
		return err
	}
	e.op(0x8D)
	return e.memModRM(byte(dst.Reg.Num()), src.Mem)
}

func (e *enc) encodePushPop() error {
	if err := e.wantArgs(1); err != nil {
		return err
	}
	a := e.in.Args[0]
	push := e.in.Op == x86.OpPUSH
	switch a.Kind {
	case x86.KindReg:
		if a.Reg.Width() != x86.W64 {
			return e.unsupported() // only 64-bit pushes in 64-bit mode
		}
		if err := e.useReg(a.Reg, 1); err != nil {
			return err
		}
		if push {
			e.op(0x50 + byte(a.Reg.Num()&7))
		} else {
			e.op(0x58 + byte(a.Reg.Num()&7))
		}
		return nil
	case x86.KindImm:
		if !push {
			return e.unsupported()
		}
		if fitsInt8(a.Imm) {
			e.op(0x6A)
			e.imm8(a.Imm)
		} else if fitsInt32(a.Imm) {
			e.op(0x68)
			e.imm32(a.Imm)
		} else {
			return fmt.Errorf("encode: %s: push immediate too large", e.in)
		}
		return nil
	case x86.KindMem:
		if push {
			e.op(0xFF)
			return e.memModRM(6, a.Mem)
		}
		e.op(0x8F)
		return e.memModRM(0, a.Mem)
	}
	return e.unsupported()
}

func (e *enc) encodeXCHG() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	if src.Kind != x86.KindReg {
		src, dst = dst, src
	}
	if src.Kind != x86.KindReg {
		return e.unsupported()
	}
	w := e.in.Width
	// Accumulator short form 90+r, as gas emits it. xchg of the
	// accumulator with itself keeps the 87 form (90 would be NOP,
	// which is not semantically equivalent in 64-bit mode).
	if w != x86.W8 && dst.Kind == x86.KindReg && src.Reg != dst.Reg {
		other := x86.RegNone
		if src.Reg.Family() == x86.RAX {
			other = dst.Reg
		} else if dst.Reg.Family() == x86.RAX {
			other = src.Reg
		}
		if other != x86.RegNone {
			e.widthPrefixREX(w)
			if err := e.useReg(other, 1); err != nil {
				return err
			}
			e.op(0x90 + byte(other.Num()&7))
			return nil
		}
	}
	e.widthPrefixREX(w)
	if err := e.useReg(src.Reg, 4); err != nil {
		return err
	}
	if w == x86.W8 {
		e.op(0x86)
	} else {
		e.op(0x87)
	}
	return e.rmOperand(byte(src.Reg.Num()), dst)
}

func (e *enc) encodeCMOV() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	if dst.Kind != x86.KindReg {
		return e.unsupported()
	}
	e.widthPrefixREX(e.in.Width)
	if err := e.useReg(dst.Reg, 4); err != nil {
		return err
	}
	e.op(0x0F, 0x40+byte(e.in.Cond))
	return e.rmOperand(byte(dst.Reg.Num()), src)
}

func (e *enc) encodeALU() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	info := aluInfo[e.in.Op]
	src, dst := e.in.Args[0], e.in.Args[1]
	w := e.in.Width
	e.widthPrefixREX(w)

	if src.Kind == x86.KindImm {
		if src.Sym != "" {
			return e.unsupported()
		}
		v := src.Imm
		switch {
		case w == x86.W8:
			if dst.IsReg(x86.AL) {
				e.op(info.base + 4)
				e.imm8(v)
				return nil
			}
			e.op(0x80)
			if err := e.rmOperand(info.digit, dst); err != nil {
				return err
			}
			e.imm8(v)
			return nil
		case fitsInt8(v):
			e.op(0x83)
			if err := e.rmOperand(info.digit, dst); err != nil {
				return err
			}
			e.imm8(v)
			return nil
		default:
			if w == x86.W64 && !fitsInt32(v) {
				return fmt.Errorf("encode: %s: immediate does not fit imm32", e.in)
			}
			// Accumulator short form saves the ModRM byte.
			if dst.Kind == x86.KindReg && dst.Reg.Family() == x86.RAX &&
				dst.Reg.Width() == w {
				e.op(info.base + 5)
			} else {
				e.op(0x81)
				if err := e.rmOperand(info.digit, dst); err != nil {
					return err
				}
			}
			if w == x86.W16 {
				e.imm16(v)
			} else {
				e.imm32(v)
			}
			return nil
		}
	}
	// r, r/m (MR).
	if src.Kind == x86.KindReg && src.Reg.IsGPR() {
		if err := e.useReg(src.Reg, 4); err != nil {
			return err
		}
		if w == x86.W8 {
			e.op(info.base + 0)
		} else {
			e.op(info.base + 1)
		}
		return e.rmOperand(byte(src.Reg.Num()), dst)
	}
	// m, r (RM).
	if src.Kind == x86.KindMem && dst.Kind == x86.KindReg {
		if err := e.useReg(dst.Reg, 4); err != nil {
			return err
		}
		if w == x86.W8 {
			e.op(info.base + 2)
		} else {
			e.op(info.base + 3)
		}
		return e.rmOperand(byte(dst.Reg.Num()), src)
	}
	return e.unsupported()
}

func (e *enc) encodeIncDec() error {
	if err := e.wantArgs(1); err != nil {
		return err
	}
	w := e.in.Width
	e.widthPrefixREX(w)
	digit := byte(0)
	if e.in.Op == x86.OpDEC {
		digit = 1
	}
	if w == x86.W8 {
		e.op(0xFE)
	} else {
		e.op(0xFF)
	}
	return e.rmOperand(digit, e.in.Args[0])
}

func (e *enc) encodeGroup3() error {
	if err := e.wantArgs(1); err != nil {
		return err
	}
	w := e.in.Width
	e.widthPrefixREX(w)
	if w == x86.W8 {
		e.op(0xF6)
	} else {
		e.op(0xF7)
	}
	return e.rmOperand(group3Digit[e.in.Op], e.in.Args[0])
}

func (e *enc) encodeIMUL() error {
	switch len(e.in.Args) {
	case 1:
		e.widthPrefixREX(e.in.Width)
		if e.in.Width == x86.W8 {
			e.op(0xF6)
		} else {
			e.op(0xF7)
		}
		return e.rmOperand(group3Digit[x86.OpIMUL], e.in.Args[0])
	case 2:
		src, dst := e.in.Args[0], e.in.Args[1]
		if dst.Kind != x86.KindReg || e.in.Width == x86.W8 {
			return e.unsupported()
		}
		e.widthPrefixREX(e.in.Width)
		if err := e.useReg(dst.Reg, 4); err != nil {
			return err
		}
		e.op(0x0F, 0xAF)
		return e.rmOperand(byte(dst.Reg.Num()), src)
	case 3:
		// imul imm, r/m, r.
		imm, src, dst := e.in.Args[0], e.in.Args[1], e.in.Args[2]
		if imm.Kind != x86.KindImm || dst.Kind != x86.KindReg || e.in.Width == x86.W8 {
			return e.unsupported()
		}
		e.widthPrefixREX(e.in.Width)
		if err := e.useReg(dst.Reg, 4); err != nil {
			return err
		}
		if fitsInt8(imm.Imm) {
			e.op(0x6B)
			if err := e.rmOperand(byte(dst.Reg.Num()), src); err != nil {
				return err
			}
			e.imm8(imm.Imm)
			return nil
		}
		if !fitsInt32(imm.Imm) {
			return fmt.Errorf("encode: %s: immediate does not fit imm32", e.in)
		}
		e.op(0x69)
		if err := e.rmOperand(byte(dst.Reg.Num()), src); err != nil {
			return err
		}
		if e.in.Width == x86.W16 {
			e.imm16(imm.Imm)
		} else {
			e.imm32(imm.Imm)
		}
		return nil
	}
	return e.unsupported()
}

func (e *enc) encodeTEST() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	w := e.in.Width
	e.widthPrefixREX(w)
	if src.Kind == x86.KindImm {
		if dst.Kind == x86.KindReg && dst.Reg.Family() == x86.RAX && dst.Reg.Width() == w {
			if w == x86.W8 {
				e.op(0xA8)
				e.imm8(src.Imm)
				return nil
			}
			e.op(0xA9)
		} else {
			if w == x86.W8 {
				e.op(0xF6)
			} else {
				e.op(0xF7)
			}
			if err := e.rmOperand(0, dst); err != nil {
				return err
			}
			if w == x86.W8 {
				e.imm8(src.Imm)
				return nil
			}
		}
		switch w {
		case x86.W16:
			e.imm16(src.Imm)
		default:
			if w == x86.W64 && !fitsInt32(src.Imm) {
				return fmt.Errorf("encode: %s: immediate does not fit imm32", e.in)
			}
			e.imm32(src.Imm)
		}
		return nil
	}
	if src.Kind == x86.KindReg {
		if err := e.useReg(src.Reg, 4); err != nil {
			return err
		}
		if w == x86.W8 {
			e.op(0x84)
		} else {
			e.op(0x85)
		}
		return e.rmOperand(byte(src.Reg.Num()), dst)
	}
	return e.unsupported()
}

func (e *enc) encodeShift() error {
	digit := shiftDigit[e.in.Op]
	w := e.in.Width
	e.widthPrefixREX(w)
	opc1, opcImm, opcCL := byte(0xD1), byte(0xC1), byte(0xD3)
	if w == x86.W8 {
		opc1, opcImm, opcCL = 0xD0, 0xC0, 0xD2
	}
	switch len(e.in.Args) {
	case 1: // implicit count of 1: "sarl %ecx"
		e.op(opc1)
		return e.rmOperand(digit, e.in.Args[0])
	case 2:
		cnt, dst := e.in.Args[0], e.in.Args[1]
		if cnt.Kind == x86.KindImm {
			if cnt.Imm == 1 {
				e.op(opc1)
				return e.rmOperand(digit, dst)
			}
			e.op(opcImm)
			if err := e.rmOperand(digit, dst); err != nil {
				return err
			}
			e.imm8(cnt.Imm)
			return nil
		}
		if cnt.IsReg(x86.CL) {
			e.op(opcCL)
			return e.rmOperand(digit, dst)
		}
	}
	return e.unsupported()
}

func (e *enc) encodeBranch() error {
	if err := e.wantArgs(1); err != nil {
		return err
	}
	a := e.in.Args[0]

	// Indirect forms.
	if a.Star {
		e.op(0xFF)
		digit := byte(4) // jmp
		if e.in.Op == x86.OpCALL {
			digit = 2
		} else if e.in.Op == x86.OpJCC {
			return e.unsupported()
		}
		switch a.Kind {
		case x86.KindReg:
			return e.regDirect(digit, a.Reg)
		case x86.KindMem:
			return e.memModRM(digit, a.Mem)
		case x86.KindLabel:
			return e.memModRM(digit, x86.Mem{Sym: a.Sym, Disp: a.Off})
		}
		return e.unsupported()
	}

	if a.Kind != x86.KindLabel {
		return e.unsupported()
	}
	if e.in.Lock {
		return fmt.Errorf("encode: %s: lock prefix on a relative branch", e.in)
	}
	target, known := e.ctx.symAddr(a.Sym)
	target += a.Off

	switch e.in.Op {
	case x86.OpCALL:
		e.op(0xE8)
		rel := int64(0)
		if known {
			rel = target - (e.ctx.Addr + 5)
		}
		e.imm32(rel)
		return nil
	case x86.OpJMP:
		if known && !e.ctx.ForceLong {
			if rel := target - (e.ctx.Addr + 2); fitsInt8(rel) {
				e.op(0xEB)
				e.imm8(rel)
				return nil
			}
		}
		e.op(0xE9)
		rel := int64(0)
		if known {
			rel = target - (e.ctx.Addr + 5)
		}
		e.imm32(rel)
		return nil
	case x86.OpJCC:
		if known && !e.ctx.ForceLong {
			if rel := target - (e.ctx.Addr + 2); fitsInt8(rel) {
				e.op(0x70 + byte(e.in.Cond))
				e.imm8(rel)
				return nil
			}
		}
		e.op(0x0F, 0x80+byte(e.in.Cond))
		rel := int64(0)
		if known {
			rel = target - (e.ctx.Addr + 6)
		}
		e.imm32(rel)
		return nil
	}
	return e.unsupported()
}

func (e *enc) encodeSET() error {
	if err := e.wantArgs(1); err != nil {
		return err
	}
	e.op(0x0F, 0x90+byte(e.in.Cond))
	return e.rmOperand(0, e.in.Args[0])
}

// encodeNOP handles the plain one-byte nop and the gas multi-byte
// "nopw/nopl mem" forms.
func (e *enc) encodeNOP() error {
	if len(e.in.Args) == 0 {
		if e.in.Width == x86.W16 {
			e.prefix(0x66) // the canonical 2-byte nop, 66 90
		}
		e.op(0x90)
		return nil
	}
	if len(e.in.Args) == 1 && e.in.Args[0].Kind == x86.KindMem {
		if e.in.Width == x86.W16 {
			e.prefix(0x66)
		}
		e.op(0x0F, 0x1F)
		return e.memModRM(0, e.in.Args[0].Mem)
	}
	return e.unsupported()
}

// encodeSSEMove handles movss/movsd/movaps/movups/movdqa/movdqu.
func (e *enc) encodeSSEMove() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	var prefix byte
	var loadOpc, storeOpc byte
	switch e.in.Op {
	case x86.OpMOVSS:
		prefix, loadOpc, storeOpc = 0xF3, 0x10, 0x11
	case x86.OpMOVSD:
		prefix, loadOpc, storeOpc = 0xF2, 0x10, 0x11
	case x86.OpMOVAPS:
		prefix, loadOpc, storeOpc = 0, 0x28, 0x29
	case x86.OpMOVUPS:
		prefix, loadOpc, storeOpc = 0, 0x10, 0x11
	case x86.OpMOVDQA:
		prefix, loadOpc, storeOpc = 0x66, 0x6F, 0x7F
	case x86.OpMOVDQU:
		prefix, loadOpc, storeOpc = 0xF3, 0x6F, 0x7F
	}
	if prefix != 0 {
		e.prefix(prefix)
	}
	if dst.Kind == x86.KindReg && dst.Reg.IsXMM() {
		if err := e.useReg(dst.Reg, 4); err != nil {
			return err
		}
		e.op(0x0F, loadOpc)
		return e.rmOperand(byte(dst.Reg.Num()), src)
	}
	if src.Kind == x86.KindReg && src.Reg.IsXMM() {
		if err := e.useReg(src.Reg, 4); err != nil {
			return err
		}
		e.op(0x0F, storeOpc)
		return e.rmOperand(byte(src.Reg.Num()), dst)
	}
	return e.unsupported()
}

// encodeMOVDQ handles movd/movq between GPRs/memory and xmm.
func (e *enc) encodeMOVDQ() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	w64 := e.in.Op == x86.OpMOVQX

	srcX := src.Kind == x86.KindReg && src.Reg.IsXMM()
	dstX := dst.Kind == x86.KindReg && dst.Reg.IsXMM()

	switch {
	case srcX && dstX:
		// movq xmm, xmm: F3 0F 7E.
		e.prefix(0xF3)
		if err := e.useReg(dst.Reg, 4); err != nil {
			return err
		}
		e.op(0x0F, 0x7E)
		return e.regDirect(byte(dst.Reg.Num()), src.Reg)
	case dstX:
		// GPR/mem -> xmm: 66 (REX.W) 0F 6E.
		e.prefix(0x66)
		if w64 {
			e.rexBit(8)
		}
		if err := e.useReg(dst.Reg, 4); err != nil {
			return err
		}
		e.op(0x0F, 0x6E)
		return e.rmOperand(byte(dst.Reg.Num()), src)
	case srcX:
		// xmm -> GPR/mem: 66 (REX.W) 0F 7E; xmm -> m64 via 66 0F D6.
		if w64 && dst.Kind == x86.KindMem {
			e.prefix(0x66)
			if err := e.useReg(src.Reg, 4); err != nil {
				return err
			}
			e.op(0x0F, 0xD6)
			return e.memModRM(byte(src.Reg.Num()), dst.Mem)
		}
		e.prefix(0x66)
		if w64 {
			e.rexBit(8)
		}
		if err := e.useReg(src.Reg, 4); err != nil {
			return err
		}
		e.op(0x0F, 0x7E)
		return e.rmOperand(byte(src.Reg.Num()), dst)
	}
	return e.unsupported()
}

func (e *enc) encodeCVTToSSE() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	if dst.Kind != x86.KindReg || !dst.Reg.IsXMM() {
		return e.unsupported()
	}
	if e.in.Op == x86.OpCVTSI2SS {
		e.prefix(0xF3)
	} else {
		e.prefix(0xF2)
	}
	if e.in.Width == x86.W64 {
		e.rexBit(8)
	}
	if err := e.useReg(dst.Reg, 4); err != nil {
		return err
	}
	e.op(0x0F, 0x2A)
	return e.rmOperand(byte(dst.Reg.Num()), src)
}

func (e *enc) encodeCVTToGPR() error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	if dst.Kind != x86.KindReg || !dst.Reg.IsGPR() {
		return e.unsupported()
	}
	if e.in.Op == x86.OpCVTTSS2SI {
		e.prefix(0xF3)
	} else {
		e.prefix(0xF2)
	}
	if dst.Reg.Width() == x86.W64 {
		e.rexBit(8)
	}
	if err := e.useReg(dst.Reg, 4); err != nil {
		return err
	}
	e.op(0x0F, 0x2C)
	return e.rmOperand(byte(dst.Reg.Num()), src)
}

// encodeSSEArith handles the regular xmm <- xmm/m forms.
func (e *enc) encodeSSEArith(prefix, opc byte) error {
	if err := e.wantArgs(2); err != nil {
		return err
	}
	src, dst := e.in.Args[0], e.in.Args[1]
	if dst.Kind != x86.KindReg || !dst.Reg.IsXMM() {
		return e.unsupported()
	}
	if prefix != 0 {
		e.prefix(prefix)
	}
	if err := e.useReg(dst.Reg, 4); err != nil {
		return err
	}
	e.op(0x0F, opc)
	return e.rmOperand(byte(dst.Reg.Num()), src)
}
