// Package encode computes x86-64 binary encodings — and therefore
// byte-accurate instruction lengths — for the instruction subset MAO
// supports. Lengths are the foundation of everything alignment-related
// in MAO: repeated relaxation, decode-line placement, branch-predictor
// aliasing, and sample-to-instruction mapping all depend on them.
//
// Encoding follows the Intel SDM rules: optional legacy prefixes
// (66/F0/F2/F3), an optional REX prefix, a 1–3 byte opcode, ModRM/SIB,
// displacement, immediate. Encodings are chosen the way GNU gas
// chooses them (shortest form first, accumulator short forms, sign-
// extended imm8 ALU forms) so that relaxation reproduces the paper's
// Section II example byte-for-byte.
package encode

import (
	"encoding/binary"
	"fmt"

	"mao/internal/x86"
)

// Ctx supplies the positional context an encoding depends on.
type Ctx struct {
	// Addr is the address of the instruction being encoded.
	Addr int64
	// SymAddr resolves a symbol to its address. A false result means
	// the symbol is external/unknown; branches to it use rel32 with a
	// zero placeholder, and RIP-relative references use disp32 zero.
	SymAddr func(sym string) (int64, bool)
	// ForceLong forces the rel32 form of jmp/jcc even when a rel8
	// displacement would fit. The relaxation driver uses this to grow
	// branches monotonically.
	ForceLong bool
}

func (c *Ctx) symAddr(sym string) (int64, bool) {
	if c == nil || c.SymAddr == nil {
		return 0, false
	}
	return c.SymAddr(sym)
}

// Encode returns the binary encoding of in.
func Encode(in *x86.Inst, ctx *Ctx) ([]byte, error) {
	var e enc
	if err := e.run(in, ctx); err != nil {
		return nil, err
	}
	return e.bytes(), nil
}

// Length returns the encoded length of in in bytes. It sizes the same
// parts Encode assembles, without allocating.
func Length(in *x86.Inst, ctx *Ctx) (int, error) {
	var e enc
	if err := e.run(in, ctx); err != nil {
		return 0, err
	}
	return e.length(), nil
}

// zeroCtx stands in for a nil *Ctx: address 0, no symbols.
var zeroCtx Ctx

// enc accumulates the parts of one encoding in fixed-size arrays, so
// sizing an instruction allocates nothing.
type enc struct {
	ctx *Ctx
	in  *x86.Inst

	prefixes  [4]byte // legacy prefixes: LOCK plus at most one more
	nprefixes int
	rex       byte // 0x40-based; 0 means "no REX yet"
	rexMust   bool // force emitting 0x40 even with no bits set (sil/dil/...)
	opcode    [3]byte
	nopcode   int
	modrm     byte
	hasModRM  bool
	sib       byte
	hasSIB    bool
	disp      [4]byte
	ndisp     int
	imm       [8]byte
	nimm      int

	// RIP-relative displacement fixup: when set, the 4-byte disp is
	// patched to target-(addr+len) after the length is known.
	ripRelTarget int64
	ripRelKnown  bool

	// usedHighByte records that ah/ch/dh/bh appeared in any operand,
	// for the REX-compatibility check after all operands are seen.
	usedHighByte bool
}

// run encodes in into e's parts and checks the constraints that span
// them.
func (e *enc) run(in *x86.Inst, ctx *Ctx) error {
	if ctx == nil {
		ctx = &zeroCtx
	}
	e.ctx, e.in = ctx, in
	if err := e.encode(); err != nil {
		return err
	}
	if e.usedHighByte && e.hasREX() {
		return fmt.Errorf("encode: %s: cannot combine a high-byte register with a REX prefix", in)
	}
	if e.length() > 15 {
		return fmt.Errorf("encode: %s: encoding exceeds 15 bytes", in)
	}
	return nil
}

func (e *enc) hasREX() bool { return e.rex != 0 || e.rexMust }

func (e *enc) length() int {
	n := e.nprefixes + e.nopcode + e.ndisp + e.nimm
	if e.hasREX() {
		n++
	}
	if e.hasModRM {
		n++
	}
	if e.hasSIB {
		n++
	}
	return n
}

func (e *enc) bytes() []byte {
	out := make([]byte, 0, e.length())
	out = append(out, e.prefixes[:e.nprefixes]...)
	if e.hasREX() {
		out = append(out, 0x40|e.rex)
	}
	out = append(out, e.opcode[:e.nopcode]...)
	if e.hasModRM {
		out = append(out, e.modrm)
	}
	if e.hasSIB {
		out = append(out, e.sib)
	}
	dispOff := len(out)
	out = append(out, e.disp[:e.ndisp]...)
	out = append(out, e.imm[:e.nimm]...)
	if e.ripRelKnown {
		rel := e.ripRelTarget - (e.ctx.Addr + int64(len(out)))
		binary.LittleEndian.PutUint32(out[dispOff:], uint32(int32(rel)))
	}
	return out
}

func (e *enc) prefix(p byte) {
	e.prefixes[e.nprefixes] = p
	e.nprefixes++
}

// rexBit sets one REX bit: 8=W, 4=R, 2=X, 1=B.
func (e *enc) rexBit(bit byte) { e.rex |= bit }

func (e *enc) op(bs ...byte) { e.nopcode += copy(e.opcode[e.nopcode:], bs) }

// setModRM assembles the ModRM byte from its fields.
func (e *enc) setModRM(mod, reg, rm byte) {
	e.modrm = mod<<6 | (reg&7)<<3 | rm&7
	e.hasModRM = true
}

// setImm sets the immediate to the low n bytes of v, little-endian.
func (e *enc) setImm(v int64, n int) {
	binary.LittleEndian.PutUint64(e.imm[:], uint64(v))
	e.nimm = n
}

func (e *enc) imm8(v int64)  { e.setImm(v, 1) }
func (e *enc) imm16(v int64) { e.setImm(v, 2) }
func (e *enc) imm32(v int64) { e.setImm(v, 4) }
func (e *enc) imm64(v int64) { e.setImm(v, 8) }

// setDisp sets the displacement to the low n bytes of v, little-endian.
func (e *enc) setDisp(v int64, n int) {
	binary.LittleEndian.PutUint32(e.disp[:], uint32(v))
	e.ndisp = n
}

func (e *enc) disp8(v int64)  { e.setDisp(v, 1) }
func (e *enc) disp32(v int64) { e.setDisp(v, 4) }

func fitsInt8(v int64) bool  { return v >= -128 && v <= 127 }
func fitsInt32(v int64) bool { return v >= -1<<31 && v <= 1<<31-1 }

// useReg records REX requirements of a register used in the reg field
// (bit 4=R), rm field (bit 1=B) or index field (bit 2=X).
func (e *enc) useReg(r x86.Reg, rexBit byte) error {
	if r.NeedsREX() {
		if r >= x86.SPL && r <= x86.DIL {
			e.rexMust = true
		}
		if r.Num() >= 8 {
			e.rexBit(rexBit)
		}
	}
	if r.IsHighByte() {
		e.usedHighByte = true
	}
	return nil
}

// regDirect encodes a register-direct ModRM (mod=11).
func (e *enc) regDirect(regField byte, rm x86.Reg) error {
	if err := e.useReg(rm, 1); err != nil {
		return err
	}
	e.setModRM(3, regField, byte(rm.Num()))
	return nil
}

// memModRM encodes a memory reference into ModRM/SIB/disp.
func (e *enc) memModRM(regField byte, m x86.Mem) error {
	// RIP-relative.
	if m.IsRIPRel() {
		e.setModRM(0, regField, 5)
		if m.Sym != "" {
			if t, ok := e.ctx.symAddr(m.Sym); ok {
				e.ripRelTarget = t + m.Disp
				e.ripRelKnown = true
			}
			e.disp32(0)
		} else {
			e.disp32(m.Disp)
		}
		return nil
	}

	disp := m.Disp
	if m.Sym != "" {
		// Absolute symbolic reference; resolve if possible, else zero
		// placeholder. Either way the encoding is disp32.
		if t, ok := e.ctx.symAddr(m.Sym); ok {
			disp += t
		}
	}

	base, index := m.Base, m.Index
	if index == x86.RSP {
		return fmt.Errorf("encode: %s: %%rsp cannot be an index register", e.in)
	}

	needSIB := index != x86.RegNone || base == x86.RegNone ||
		base == x86.RSP || base == x86.R12

	if !needSIB {
		if err := e.useReg(base, 1); err != nil {
			return err
		}
		rm := byte(base.Num())
		switch {
		case m.Sym != "":
			e.setModRM(2, regField, rm)
			e.disp32(disp)
		case disp == 0 && base != x86.RBP && base != x86.R13:
			e.setModRM(0, regField, rm)
		case fitsInt8(disp):
			e.setModRM(1, regField, rm)
			e.disp8(disp)
		default:
			e.setModRM(2, regField, rm)
			e.disp32(disp)
		}
		return nil
	}

	// SIB path.
	var scaleBits byte
	switch m.EffScale() {
	case 1:
		scaleBits = 0
	case 2:
		scaleBits = 1
	case 4:
		scaleBits = 2
	case 8:
		scaleBits = 3
	default:
		return fmt.Errorf("encode: %s: bad scale %d", e.in, m.Scale)
	}
	idxBits := byte(4) // none
	if index != x86.RegNone {
		if err := e.useReg(index, 2); err != nil {
			return err
		}
		idxBits = byte(index.Num())
	}
	if base == x86.RegNone {
		// No base: mod=00, SIB base=101, disp32 mandatory.
		e.setModRM(0, regField, 4)
		e.sib = scaleBits<<6 | (idxBits&7)<<3 | 5
		e.hasSIB = true
		e.disp32(disp)
		return nil
	}
	if err := e.useReg(base, 1); err != nil {
		return err
	}
	baseBits := byte(base.Num())
	e.sib = scaleBits<<6 | (idxBits&7)<<3 | baseBits&7
	e.hasSIB = true
	switch {
	case m.Sym != "":
		e.setModRM(2, regField, 4)
		e.disp32(disp)
	case disp == 0 && base != x86.RBP && base != x86.R13:
		e.setModRM(0, regField, 4)
	case fitsInt8(disp):
		e.setModRM(1, regField, 4)
		e.disp8(disp)
	default:
		e.setModRM(2, regField, 4)
		e.disp32(disp)
	}
	return nil
}

// rmOperand dispatches a ModRM r/m operand (register or memory).
func (e *enc) rmOperand(regField byte, o x86.Operand) error {
	switch o.Kind {
	case x86.KindReg:
		return e.regDirect(regField, o.Reg)
	case x86.KindMem:
		return e.memModRM(regField, o.Mem)
	}
	return fmt.Errorf("encode: %s: operand %s is not r/m", e.in, o)
}

// widthPrefixREX applies the operand-size prefix / REX.W bit for the
// given GPR operand width.
func (e *enc) widthPrefixREX(w x86.Width) {
	switch w {
	case x86.W16:
		e.prefix(0x66)
	case x86.W64:
		e.rexBit(8)
	}
}
