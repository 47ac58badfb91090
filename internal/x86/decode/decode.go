// Package decode is the binary front end of MAO: a table-driven
// x86-64 instruction decoder covering exactly the instruction surface
// the companion encoder (mao/internal/x86/encode) can emit — legacy
// and REX prefixes, 1-3 byte opcodes, ModRM/SIB/displacement forms,
// every immediate width, and the grouped ALU/shift/group3/SSE/prefetch
// encodings, whose dispatch tables are derived from the encoder's own
// form tables at init time (see tables.go).
//
// One decodes a single instruction, All a whole buffer, and ToUnit
// (lift.go) lifts a raw .text blob into the IR so the full pipeline —
// passes, MAOCHECK, MAOVERIFY, relaxation — runs unchanged on machine
// code. Together with the encoder it forms a differential oracle: for
// encoder-produced (canonical) byte streams, encode(decode(bytes)) ==
// bytes; for arbitrary decodable input the chain reaches that
// canonical fixpoint after one re-encode. FuzzDecodeEncodeRoundtrip
// and the sync test pin both properties.
//
// Decoding never panics on malformed input: every failure is a
// structured *Error carrying the byte offset of the offending
// instruction.
package decode

import (
	"fmt"

	"mao/internal/x86"
)

// Error is a structured decode failure: the buffer offset of the
// instruction that failed to decode, plus a description.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("decode: offset %#x: %s", e.Offset, e.Msg)
}

// Decoded is one decoded instruction with its position metadata.
type Decoded struct {
	// Inst is the lifted instruction. For relative branches (IsRel)
	// its target operand is a placeholder label with an empty symbol;
	// ToUnit rewrites it to a synthetic label.
	Inst *x86.Inst
	// Off is the byte offset of the instruction's first byte within
	// the decoded buffer; Len its encoded length.
	Off int
	Len int
	// RelTarget is the branch target as a buffer offset (next
	// instruction + displacement) when IsRel is set: the instruction
	// is a direct call/jmp/jcc with a relative displacement.
	RelTarget int64
	IsRel     bool
	// Long marks a direct jmp/jcc that used the rel32 form.
	Long bool
}

// One decodes the first instruction of b. off is the offset of b[0]
// within the enclosing buffer; it positions RelTarget and error
// offsets, not the bytes themselves.
func One(b []byte, off int) (*Decoded, error) {
	d := &dec{b: b, off: off}
	in, err := d.insn()
	if err != nil {
		return nil, err
	}
	if d.rep != 0 && !d.repUsed {
		return nil, d.errf("dangling %#x prefix", d.rep)
	}
	if d.opsize && !d.opsizeUsed {
		return nil, d.errf("dangling 66 operand-size prefix")
	}
	if d.pos > 15 {
		return nil, d.errf("instruction exceeds 15 bytes")
	}
	if d.lock && d.isRel {
		// LOCK on a branch is undefined (#UD), and re-encoding it would
		// move the target by the prefix's length on every round trip.
		return nil, d.errf("lock prefix on a relative branch")
	}
	r := &Decoded{Inst: in, Off: off, Len: d.pos, RelTarget: d.relTarget, IsRel: d.isRel, Long: d.long}
	return r, nil
}

// All decodes the whole buffer into consecutive instructions.
func All(b []byte) ([]*Decoded, error) {
	var out []*Decoded
	for off := 0; off < len(b); {
		r, err := One(b[off:], off)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		off += r.Len
	}
	return out, nil
}

// dec decodes one instruction. b is the remaining buffer starting at
// the instruction; pos the read cursor within it; off the
// instruction's offset in the enclosing buffer (for errors and
// relative targets).
type dec struct {
	b   []byte
	off int
	pos int

	opsize     bool // 66 seen
	opsizeUsed bool
	lock       bool // F0 seen
	rep        byte // F2 or F3 (0 = none)
	repUsed    bool
	hasREX     bool
	rex        byte // low nibble: WRXB

	relTarget int64
	isRel     bool
	long      bool
}

func (d *dec) errf(format string, args ...any) error {
	return &Error{Offset: d.off, Msg: fmt.Sprintf(format, args...)}
}

func (d *dec) errTruncated() error { return d.errf("truncated instruction") }

func (d *dec) u8() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, d.errTruncated()
	}
	c := d.b[d.pos]
	d.pos++
	return c, nil
}

// i8/i16/i32 read sign-extended little-endian immediates; i64 raw.
func (d *dec) i8() (int64, error) {
	c, err := d.u8()
	return int64(int8(c)), err
}

func (d *dec) i16() (int64, error) {
	if d.pos+2 > len(d.b) {
		return 0, d.errTruncated()
	}
	v := int64(int16(uint16(d.b[d.pos]) | uint16(d.b[d.pos+1])<<8))
	d.pos += 2
	return v, nil
}

func (d *dec) i32() (int64, error) {
	if d.pos+4 > len(d.b) {
		return 0, d.errTruncated()
	}
	v := int64(int32(uint32(d.b[d.pos]) | uint32(d.b[d.pos+1])<<8 |
		uint32(d.b[d.pos+2])<<16 | uint32(d.b[d.pos+3])<<24))
	d.pos += 4
	return v, nil
}

func (d *dec) i64() (int64, error) {
	lo, err := d.i32()
	if err != nil {
		return 0, err
	}
	hi, err := d.i32()
	if err != nil {
		return 0, err
	}
	return int64(uint64(uint32(lo)) | uint64(hi)<<32), nil
}

func (d *dec) rexW() bool { return d.hasREX && d.rex&8 != 0 }
func (d *dec) rexR() int  { return int(d.rex>>2) & 1 }
func (d *dec) rexX() int  { return int(d.rex>>1) & 1 }
func (d *dec) rexB() int  { return int(d.rex) & 1 }

// gprW resolves the operand width of a non-byte GPR instruction from
// the REX.W bit and the 66 prefix, consuming the latter.
func (d *dec) gprW() x86.Width {
	if d.rexW() {
		return x86.W64
	}
	if d.opsize {
		d.opsizeUsed = true
		return x86.W16
	}
	return x86.W32
}

// reg8 maps a byte-register number: with any REX prefix present the
// uniform set applies (4..7 are spl/bpl/sil/dil), without one the
// legacy high-byte registers (4..7 are ah/ch/dh/bh).
func (d *dec) reg8(num int) x86.Reg {
	if !d.hasREX && num >= 4 && num < 8 {
		return x86.AH + x86.Reg(num-4)
	}
	return x86.AL + x86.Reg(num)
}

// gpr maps a register number at the given width.
func (d *dec) gpr(num int, w x86.Width) x86.Reg {
	switch w {
	case x86.W8:
		return d.reg8(num)
	case x86.W16:
		return x86.AX + x86.Reg(num)
	case x86.W32:
		return x86.EAX + x86.Reg(num)
	default:
		return x86.RAX + x86.Reg(num)
	}
}

func xmm(num int) x86.Reg { return x86.XMM0 + x86.Reg(num) }

// modrm is a decoded ModRM byte (with SIB and displacement when the
// addressing form carries them). regNum and rmNum include the REX
// extension bits; mem is meaningful when mod != 3.
type modrm struct {
	mod    byte
	regNum int
	rmNum  int
	mem    x86.Mem
}

func (m *modrm) isMem() bool { return m.mod != 3 }

// modRM reads the ModRM byte and, for memory forms, the SIB byte and
// displacement.
func (d *dec) modRM() (modrm, error) {
	c, err := d.u8()
	if err != nil {
		return modrm{}, err
	}
	m := modrm{mod: c >> 6, regNum: int(c>>3&7) | d.rexR()<<3}
	rm := int(c & 7)
	if m.mod == 3 {
		m.rmNum = rm | d.rexB()<<3
		return m, nil
	}

	// Memory forms.
	if m.mod == 0 && rm == 5 {
		// RIP-relative: disp32 from the end of the instruction. The
		// raw displacement is preserved; symbolization is the
		// lifter's job (and frozen displacements re-encode
		// byte-identically at the same layout).
		disp, err := d.i32()
		if err != nil {
			return modrm{}, err
		}
		m.mem = x86.Mem{Base: x86.RIP, Disp: disp}
		return m, nil
	}

	var mem x86.Mem
	if rm == 4 {
		sib, err := d.u8()
		if err != nil {
			return modrm{}, err
		}
		idx := int(sib>>3&7) | d.rexX()<<3
		if idx != 4 { // index 100 with REX.X=0 means "no index"
			mem.Index = x86.RAX + x86.Reg(idx)
			mem.Scale = 1 << (sib >> 6)
		} else if sib>>6 != 0 {
			return modrm{}, d.errf("SIB scale with no index register")
		}
		if sib&7 == 5 && m.mod == 0 {
			// No base: disp32 is mandatory.
			disp, err := d.i32()
			if err != nil {
				return modrm{}, err
			}
			mem.Disp = disp
			m.mem = mem
			return m, nil
		}
		mem.Base = x86.RAX + x86.Reg(int(sib&7)|d.rexB()<<3)
	} else {
		mem.Base = x86.RAX + x86.Reg(rm|d.rexB()<<3)
	}
	switch m.mod {
	case 1:
		disp, err := d.i8()
		if err != nil {
			return modrm{}, err
		}
		mem.Disp = disp
	case 2:
		disp, err := d.i32()
		if err != nil {
			return modrm{}, err
		}
		mem.Disp = disp
	}
	m.mem = mem
	return m, nil
}

// rmOp renders the r/m side of a ModRM as an operand of the given GPR
// width.
func (d *dec) rmOp(m modrm, w x86.Width) x86.Operand {
	if m.isMem() {
		return x86.MemOp(m.mem)
	}
	return x86.RegOp(d.gpr(m.rmNum, w))
}

// rmXMM renders the r/m side as an XMM register or memory operand.
func rmXMM(m modrm) x86.Operand {
	if m.isMem() {
		return x86.MemOp(m.mem)
	}
	return x86.RegOp(xmm(m.rmNum))
}

// inst builds the instruction, applying the same width inference the
// assembly parser applies so decoded and parsed instructions carry
// identical field values.
func (d *dec) inst(m x86.Mnem, args ...x86.Operand) *x86.Inst {
	in := x86.NewInst(m, args...)
	in.Lock = d.lock
	return in
}

// rel records a relative-branch displacement: the target is the
// offset of the next instruction plus the displacement.
func (d *dec) rel(disp int64, long bool) {
	d.relTarget = int64(d.off+d.pos) + disp
	d.isRel = true
	d.long = long
}

// sseSelector resolves the mandatory-prefix selector of a 0F-map SSE
// opcode (0, 66, F2 or F3), consuming the prefix it selects.
func (d *dec) sseSelector() (byte, error) {
	if d.rep != 0 && d.opsize {
		return 0, d.errf("conflicting 66 and %#x prefixes", d.rep)
	}
	if d.rep != 0 {
		d.repUsed = true
		return d.rep, nil
	}
	if d.opsize {
		d.opsizeUsed = true
		return 0x66, nil
	}
	return 0, nil
}

// insn decodes prefixes, REX and the opcode, dispatching to the form
// handlers.
func (d *dec) insn() (*x86.Inst, error) {
	// Legacy prefixes, in any order.
	for {
		if d.pos >= len(d.b) {
			if d.pos > 0 {
				return nil, d.errf("dangling prefix at end of buffer")
			}
			return nil, d.errTruncated()
		}
		c := d.b[d.pos]
		switch c {
		case 0x66:
			d.opsize = true
		case 0xF0:
			d.lock = true
		case 0xF2, 0xF3:
			d.rep = c
		case 0x67:
			return nil, d.errf("unsupported prefix %#x (address-size override)", c)
		case 0x2E, 0x36, 0x3E, 0x26, 0x64, 0x65:
			return nil, d.errf("unsupported prefix %#x (segment override)", c)
		default:
			goto prefixesDone
		}
		d.pos++
		if d.pos >= 15 {
			return nil, d.errf("instruction exceeds 15 bytes")
		}
	}
prefixesDone:

	// REX, if present, must be the last prefix.
	if c := d.b[d.pos]; c&0xF0 == 0x40 {
		d.hasREX = true
		d.rex = c & 0x0F
		d.pos++
	}

	opc, err := d.u8()
	if err != nil {
		return nil, err
	}

	// The 00-3F ALU rows: forms +0/+1 (MR), +2/+3 (RM), +4/+5
	// (accumulator, immediate).
	if opc < 0x40 && opc&7 <= 5 {
		return d.aluRow(opc)
	}

	switch {
	case opc >= 0x50 && opc <= 0x57:
		return d.inst(x86.Mnem{Op: x86.OpPUSH},
			x86.RegOp(d.gpr(int(opc-0x50)|d.rexB()<<3, x86.W64))), nil
	case opc >= 0x58 && opc <= 0x5F:
		return d.inst(x86.Mnem{Op: x86.OpPOP},
			x86.RegOp(d.gpr(int(opc-0x58)|d.rexB()<<3, x86.W64))), nil
	case opc >= 0x70 && opc <= 0x7F: // jcc rel8
		disp, err := d.i8()
		if err != nil {
			return nil, err
		}
		d.rel(disp, false)
		return d.inst(x86.Mnem{Op: x86.OpJCC, Cond: x86.Cond(opc - 0x70)}, x86.LabelOp("")), nil
	case opc >= 0x90 && opc <= 0x97:
		return d.xchgShort(opc)
	case opc >= 0xB0 && opc <= 0xB7: // mov r8, imm8
		v, err := d.i8()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOV, Width: x86.W8},
			x86.Imm(v), x86.RegOp(d.reg8(int(opc-0xB0)|d.rexB()<<3))), nil
	case opc >= 0xB8 && opc <= 0xBF:
		return d.movImmReg(opc)
	}

	switch opc {
	case 0x63: // movslq
		if !d.rexW() {
			return nil, d.errf("movslq (63) without REX.W")
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOVSX, Width: x86.W64, SrcWidth: x86.W32},
			d.rmOp(m, x86.W32), x86.RegOp(d.gpr(m.regNum, x86.W64))), nil
	case 0x68, 0x6A: // push imm32 / imm8
		var v int64
		var err error
		if opc == 0x68 {
			v, err = d.i32()
		} else {
			v, err = d.i8()
		}
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpPUSH}, x86.Imm(v)), nil
	case 0x69, 0x6B: // imul r, r/m, immv / imm8
		w := d.gprW()
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		var v int64
		switch {
		case opc == 0x6B:
			v, err = d.i8()
		case w == x86.W16:
			v, err = d.i16()
		default:
			v, err = d.i32()
		}
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpIMUL, Width: w},
			x86.Imm(v), d.rmOp(m, w), x86.RegOp(d.gpr(m.regNum, w))), nil
	case 0x80, 0x81, 0x83:
		return d.aluImmGroup(opc)
	case 0x84, 0x85: // test r, r/m
		w := x86.W8
		if opc == 0x85 {
			w = d.gprW()
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpTEST, Width: w},
			x86.RegOp(d.gpr(m.regNum, w)), d.rmOp(m, w)), nil
	case 0x86, 0x87: // xchg r, r/m
		w := x86.W8
		if opc == 0x87 {
			w = d.gprW()
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		reg, rm := x86.RegOp(d.gpr(m.regNum, w)), d.rmOp(m, w)
		// The encoder emits the 90+r short form for any xchg of the
		// accumulator with another register, and that form lifts as
		// (r, acc). An accumulator in the reg field lifts in the same
		// order, so decode(encode(x)) == x.
		if w != x86.W8 && !m.isMem() && m.regNum == 0 && m.rmNum != 0 {
			reg, rm = rm, reg
		}
		return d.inst(x86.Mnem{Op: x86.OpXCHG, Width: w}, reg, rm), nil
	case 0x88, 0x89: // mov r, r/m (MR)
		w := x86.W8
		if opc == 0x89 {
			w = d.gprW()
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOV, Width: w},
			x86.RegOp(d.gpr(m.regNum, w)), d.rmOp(m, w)), nil
	case 0x8A, 0x8B: // mov r/m, r (RM)
		w := x86.W8
		if opc == 0x8B {
			w = d.gprW()
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOV, Width: w},
			d.rmOp(m, w), x86.RegOp(d.gpr(m.regNum, w))), nil
	case 0x8D: // lea
		w := d.gprW()
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		if !m.isMem() {
			return nil, d.errf("lea with register source")
		}
		return d.inst(x86.Mnem{Op: x86.OpLEA, Width: w},
			x86.MemOp(m.mem), x86.RegOp(d.gpr(m.regNum, w))), nil
	case 0x8F: // pop r/m
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		if m.regNum&7 != 0 {
			return nil, d.errf("8F /%d is not an instruction", m.regNum&7)
		}
		return d.inst(x86.Mnem{Op: x86.OpPOP}, d.rmOp(m, x86.W64)), nil
	case 0x98: // cwtl / cltq (REX.W)
		if d.rexW() {
			return d.inst(x86.Mnem{Op: x86.OpCLTQ}), nil
		}
		return d.inst(x86.Mnem{Op: x86.OpCWTL}), nil
	case 0x99: // cltd / cqto (REX.W)
		if d.rexW() {
			return d.inst(x86.Mnem{Op: x86.OpCQTO}), nil
		}
		return d.inst(x86.Mnem{Op: x86.OpCLTD}), nil
	case 0xA8: // test al, imm8
		v, err := d.i8()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpTEST, Width: x86.W8},
			x86.Imm(v), x86.RegOp(x86.AL)), nil
	case 0xA9: // test acc, immv
		w := d.gprW()
		v, err := d.immv(w)
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpTEST, Width: w},
			x86.Imm(v), x86.RegOp(x86.RAX.WithWidth(w))), nil
	case 0xC0, 0xC1, 0xD0, 0xD1, 0xD2, 0xD3:
		return d.shiftGroup(opc)
	case 0xC3:
		return d.inst(x86.Mnem{Op: x86.OpRET}), nil
	case 0xC6, 0xC7: // mov r/m, imm (group 11)
		w := x86.W8
		if opc == 0xC7 {
			w = d.gprW()
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		if m.regNum&7 != 0 {
			return nil, d.errf("%#x /%d is not an instruction", opc, m.regNum&7)
		}
		var v int64
		switch w {
		case x86.W8:
			v, err = d.i8()
		case x86.W16:
			v, err = d.i16()
		default: // W32 and W64 both take a sign-extended imm32
			v, err = d.i32()
		}
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOV, Width: w}, x86.Imm(v), d.rmOp(m, w)), nil
	case 0xC9:
		return d.inst(x86.Mnem{Op: x86.OpLEAVE}), nil
	case 0xE8: // call rel32
		disp, err := d.i32()
		if err != nil {
			return nil, err
		}
		d.rel(disp, true)
		return d.inst(x86.Mnem{Op: x86.OpCALL}, x86.LabelOp("")), nil
	case 0xE9: // jmp rel32
		disp, err := d.i32()
		if err != nil {
			return nil, err
		}
		d.rel(disp, true)
		return d.inst(x86.Mnem{Op: x86.OpJMP}, x86.LabelOp("")), nil
	case 0xEB: // jmp rel8
		disp, err := d.i8()
		if err != nil {
			return nil, err
		}
		d.rel(disp, false)
		return d.inst(x86.Mnem{Op: x86.OpJMP}, x86.LabelOp("")), nil
	case 0xF4:
		return d.inst(x86.Mnem{Op: x86.OpHLT}), nil
	case 0xF6, 0xF7:
		return d.group3(opc)
	case 0xFE: // inc/dec r/m8
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		op := x86.OpINC
		switch m.regNum & 7 {
		case 0:
		case 1:
			op = x86.OpDEC
		default:
			return nil, d.errf("FE /%d is not an instruction", m.regNum&7)
		}
		return d.inst(x86.Mnem{Op: op, Width: x86.W8}, d.rmOp(m, x86.W8)), nil
	case 0xFF:
		return d.group5()
	case 0x0F:
		return d.twoByte()
	case 0x90:
		// Unreachable (0x90..0x97 handled above), kept for clarity.
		return d.nop90()
	}
	return nil, d.errf("unsupported opcode %#02x", opc)
}

// immv reads the immediate of an operand-sized form: imm16 for W16,
// sign-extended imm32 otherwise.
func (d *dec) immv(w x86.Width) (int64, error) {
	if w == x86.W16 {
		return d.i16()
	}
	return d.i32()
}

// aluRow decodes the 00-3F two-operand ALU rows.
func (d *dec) aluRow(opc byte) (*x86.Inst, error) {
	op := aluByRow[opc>>3]
	if op == x86.OpInvalid {
		return nil, d.errf("unsupported opcode %#02x", opc)
	}
	switch opc & 7 {
	case 0, 1: // r, r/m (MR)
		w := x86.W8
		if opc&1 == 1 {
			w = d.gprW()
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op, Width: w},
			x86.RegOp(d.gpr(m.regNum, w)), d.rmOp(m, w)), nil
	case 2, 3: // r/m, r (RM)
		w := x86.W8
		if opc&1 == 1 {
			w = d.gprW()
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op, Width: w},
			d.rmOp(m, w), x86.RegOp(d.gpr(m.regNum, w))), nil
	case 4: // al, imm8
		v, err := d.i8()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op, Width: x86.W8},
			x86.Imm(v), x86.RegOp(x86.AL)), nil
	default: // 5: acc, immv
		w := d.gprW()
		v, err := d.immv(w)
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op, Width: w},
			x86.Imm(v), x86.RegOp(x86.RAX.WithWidth(w))), nil
	}
}

// aluImmGroup decodes the 80/81/83 immediate group.
func (d *dec) aluImmGroup(opc byte) (*x86.Inst, error) {
	w := x86.W8
	if opc != 0x80 {
		w = d.gprW()
	}
	m, err := d.modRM()
	if err != nil {
		return nil, err
	}
	op := aluByDigit[m.regNum&7]
	if op == x86.OpInvalid {
		return nil, d.errf("%#02x /%d is not in the ALU group", opc, m.regNum&7)
	}
	var v int64
	if opc == 0x81 {
		v, err = d.immv(w)
	} else { // 80 and 83 take imm8 (83 sign-extends into w)
		v, err = d.i8()
	}
	if err != nil {
		return nil, err
	}
	return d.inst(x86.Mnem{Op: op, Width: w}, x86.Imm(v), d.rmOp(m, w)), nil
}

// shiftGroup decodes C0/C1 (imm8 count), D0/D1 (count 1) and D2/D3
// (count in %cl).
func (d *dec) shiftGroup(opc byte) (*x86.Inst, error) {
	w := x86.W8
	if opc&1 == 1 {
		w = d.gprW()
	}
	m, err := d.modRM()
	if err != nil {
		return nil, err
	}
	op := shiftByDigit[m.regNum&7]
	if op == x86.OpInvalid {
		return nil, d.errf("%#02x /%d is not in the shift group", opc, m.regNum&7)
	}
	switch opc {
	case 0xC0, 0xC1:
		v, err := d.i8()
		if err != nil {
			return nil, err
		}
		if v == 1 {
			// The encoder emits the shorter D0/D1 form for a count of
			// one; canonicalize the long spelling so re-encoding is an
			// inverse (shift-by-1 is the one-operand AT&T form).
			return d.inst(x86.Mnem{Op: op, Width: w}, d.rmOp(m, w)), nil
		}
		return d.inst(x86.Mnem{Op: op, Width: w}, x86.Imm(v), d.rmOp(m, w)), nil
	case 0xD0, 0xD1: // implicit count of 1, the one-operand AT&T form
		return d.inst(x86.Mnem{Op: op, Width: w}, d.rmOp(m, w)), nil
	default: // D2, D3: count in %cl
		return d.inst(x86.Mnem{Op: op, Width: w}, x86.RegOp(x86.CL), d.rmOp(m, w)), nil
	}
}

// group3 decodes F6/F7: /0 is TEST imm, /2../7 the group3 table.
func (d *dec) group3(opc byte) (*x86.Inst, error) {
	w := x86.W8
	if opc == 0xF7 {
		w = d.gprW()
	}
	m, err := d.modRM()
	if err != nil {
		return nil, err
	}
	if m.regNum&7 == 0 { // test r/m, imm
		var v int64
		if w == x86.W8 {
			v, err = d.i8()
		} else {
			v, err = d.immv(w)
		}
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpTEST, Width: w}, x86.Imm(v), d.rmOp(m, w)), nil
	}
	op := group3ByDigit[m.regNum&7]
	if op == x86.OpInvalid {
		return nil, d.errf("%#02x /%d is not an instruction", opc, m.regNum&7)
	}
	return d.inst(x86.Mnem{Op: op, Width: w}, d.rmOp(m, w)), nil
}

// group5 decodes FF: inc/dec, indirect call/jmp, push.
func (d *dec) group5() (*x86.Inst, error) {
	// The width prefix applies only to the inc/dec/push members; peek
	// at the digit before consuming it.
	m, err := d.modRM()
	if err != nil {
		return nil, err
	}
	switch m.regNum & 7 {
	case 0, 1:
		w := d.gprW()
		op := x86.OpINC
		if m.regNum&7 == 1 {
			op = x86.OpDEC
		}
		return d.inst(x86.Mnem{Op: op, Width: w}, d.rmOp(m, w)), nil
	case 2, 4: // call/jmp indirect
		op := x86.OpCALL
		if m.regNum&7 == 4 {
			op = x86.OpJMP
		}
		a := d.rmOp(m, x86.W64)
		a.Star = true
		return d.inst(x86.Mnem{Op: op}, a), nil
	case 6: // push r/m64
		return d.inst(x86.Mnem{Op: x86.OpPUSH}, d.rmOp(m, x86.W64)), nil
	}
	return nil, d.errf("FF /%d is not supported", m.regNum&7)
}

// nop90 decodes the bare 0x90 row member: nop, the 66 90 two-byte
// nop, or pause (F3 90).
func (d *dec) nop90() (*x86.Inst, error) {
	if d.rep == 0xF3 {
		d.repUsed = true
		return d.inst(x86.Mnem{Op: x86.OpPAUSE}), nil
	}
	if d.opsize {
		d.opsizeUsed = true
		return d.inst(x86.Mnem{Op: x86.OpNOP, Width: x86.W16}), nil
	}
	return d.inst(x86.Mnem{Op: x86.OpNOP}), nil
}

// xchgShort decodes the 90+r row: nop/pause for the plain 0x90,
// otherwise xchg acc, r.
func (d *dec) xchgShort(opc byte) (*x86.Inst, error) {
	num := int(opc-0x90) | d.rexB()<<3
	if num == 0 && !d.rexW() {
		return d.nop90()
	}
	w := d.gprW()
	return d.inst(x86.Mnem{Op: x86.OpXCHG, Width: w},
		x86.RegOp(d.gpr(num, w)), x86.RegOp(x86.RAX.WithWidth(w))), nil
}

// movImmReg decodes B8+r: mov r, immv — with REX.W the imm64 movabs
// form, the canonical encoding of 64-bit immediates.
func (d *dec) movImmReg(opc byte) (*x86.Inst, error) {
	num := int(opc-0xB8) | d.rexB()<<3
	if d.rexW() {
		v, err := d.i64()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOVABS, Width: x86.W64},
			x86.Imm(v), x86.RegOp(d.gpr(num, x86.W64))), nil
	}
	w := d.gprW()
	v, err := d.immv(w)
	if err != nil {
		return nil, err
	}
	return d.inst(x86.Mnem{Op: x86.OpMOV, Width: w},
		x86.Imm(v), x86.RegOp(d.gpr(num, w))), nil
}

// twoByte decodes the 0F map.
func (d *dec) twoByte() (*x86.Inst, error) {
	opc, err := d.u8()
	if err != nil {
		return nil, err
	}

	switch {
	case opc >= 0x40 && opc <= 0x4F: // cmovcc
		w := d.gprW()
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpCMOV, Cond: x86.Cond(opc - 0x40), Width: w},
			d.rmOp(m, w), x86.RegOp(d.gpr(m.regNum, w))), nil
	case opc >= 0x80 && opc <= 0x8F: // jcc rel32
		disp, err := d.i32()
		if err != nil {
			return nil, err
		}
		d.rel(disp, true)
		return d.inst(x86.Mnem{Op: x86.OpJCC, Cond: x86.Cond(opc - 0x80)}, x86.LabelOp("")), nil
	case opc >= 0x90 && opc <= 0x9F: // setcc
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpSET, Cond: x86.Cond(opc - 0x90)},
			d.rmOp(m, x86.W8)), nil
	}

	switch opc {
	case 0x0B:
		return d.inst(x86.Mnem{Op: x86.OpUD2}), nil
	case 0x18: // prefetch hints
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		if !m.isMem() {
			return nil, d.errf("prefetch with a register operand")
		}
		op := prefetchByDigit[m.regNum&7]
		if op == x86.OpInvalid || m.regNum&7 > 3 {
			return nil, d.errf("0F 18 /%d is not a prefetch hint", m.regNum&7)
		}
		return d.inst(x86.Mnem{Op: op}, x86.MemOp(m.mem)), nil
	case 0x1F: // multi-byte nop
		w := x86.W32
		if d.opsize {
			d.opsizeUsed = true
			w = x86.W16
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		if m.regNum&7 != 0 {
			return nil, d.errf("0F 1F /%d is not a nop form", m.regNum&7)
		}
		if !m.isMem() {
			return nil, d.errf("0F 1F with a register operand")
		}
		return d.inst(x86.Mnem{Op: x86.OpNOP, Width: w}, x86.MemOp(m.mem)), nil
	case 0xAF: // imul r, r/m
		w := d.gprW()
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpIMUL, Width: w},
			d.rmOp(m, w), x86.RegOp(d.gpr(m.regNum, w))), nil
	case 0xB6, 0xB7, 0xBE, 0xBF: // movzx/movsx
		op := x86.OpMOVZX
		if opc >= 0xBE {
			op = x86.OpMOVSX
		}
		srcW := x86.W8
		if opc&1 == 1 {
			srcW = x86.W16
		}
		w := d.gprW()
		if w <= srcW {
			return nil, d.errf("%s with a destination no wider than its source", op)
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op, Width: w, SrcWidth: srcW},
			d.rmOp(m, srcW), x86.RegOp(d.gpr(m.regNum, w))), nil
	}

	return d.twoByteSSE(opc)
}

// twoByteSSE decodes the SSE members of the 0F map, dispatching on the
// mandatory-prefix selector.
func (d *dec) twoByteSSE(opc byte) (*x86.Inst, error) {
	sel, err := d.sseSelector()
	if err != nil {
		return nil, err
	}

	// The irregular moves and conversions first.
	switch opc {
	case 0x10, 0x11: // movss/movsd/movups load & store
		var op x86.Op
		switch sel {
		case 0xF3:
			op = x86.OpMOVSS
		case 0xF2:
			op = x86.OpMOVSD
		case 0:
			op = x86.OpMOVUPS
		default:
			return nil, d.errf("unsupported SSE form %#x 0F %02X", sel, opc)
		}
		return d.sseMove(op, opc&1 == 0)
	case 0x28, 0x29: // movaps
		if sel != 0 {
			return nil, d.errf("unsupported SSE form %#x 0F %02X", sel, opc)
		}
		return d.sseMove(x86.OpMOVAPS, opc&1 == 0)
	case 0x6F, 0x7F: // movdqa/movdqu
		var op x86.Op
		switch sel {
		case 0x66:
			op = x86.OpMOVDQA
		case 0xF3:
			op = x86.OpMOVDQU
		default:
			return nil, d.errf("unsupported SSE form %#x 0F %02X", sel, opc)
		}
		return d.sseMove(op, opc == 0x6F)
	case 0x6E, 0x7E: // movd/movq GPR/mem <-> xmm
		return d.movDQ(opc, sel)
	case 0xD6: // movq xmm -> m64 (store form)
		if sel != 0x66 {
			return nil, d.errf("unsupported SSE form %#x 0F D6", sel)
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOVQX},
			x86.RegOp(xmm(m.regNum)), rmXMM(m)), nil
	case 0x2A: // cvtsi2ss/sd
		var op x86.Op
		switch sel {
		case 0xF3:
			op = x86.OpCVTSI2SS
		case 0xF2:
			op = x86.OpCVTSI2SD
		default:
			return nil, d.errf("unsupported SSE form %#x 0F 2A", sel)
		}
		w := x86.W32
		if d.rexW() {
			w = x86.W64
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op, Width: w},
			d.rmOp(m, w), x86.RegOp(xmm(m.regNum))), nil
	case 0x2C: // cvttss2si/cvttsd2si
		var op x86.Op
		switch sel {
		case 0xF3:
			op = x86.OpCVTTSS2SI
		case 0xF2:
			op = x86.OpCVTTSD2SI
		default:
			return nil, d.errf("unsupported SSE form %#x 0F 2C", sel)
		}
		w := x86.W32
		if d.rexW() {
			w = x86.W64
		}
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op, Width: w},
			rmXMM(m), x86.RegOp(d.gpr(m.regNum, w))), nil
	}

	// The regular xmm <- xmm/m arithmetic forms, straight from the
	// encoder-derived table.
	if op, ok := sseByPrefOpc[uint16(sel)<<8|uint16(opc)]; ok {
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: op}, rmXMM(m), x86.RegOp(xmm(m.regNum))), nil
	}
	return nil, d.errf("unsupported opcode 0F %02X (selector %#x)", opc, sel)
}

// sseMove decodes a load-form (rm -> xmm) or store-form (xmm -> rm)
// SSE move.
func (d *dec) sseMove(op x86.Op, load bool) (*x86.Inst, error) {
	m, err := d.modRM()
	if err != nil {
		return nil, err
	}
	if load {
		return d.inst(x86.Mnem{Op: op}, rmXMM(m), x86.RegOp(xmm(m.regNum))), nil
	}
	return d.inst(x86.Mnem{Op: op}, x86.RegOp(xmm(m.regNum)), rmXMM(m)), nil
}

// movDQ decodes 0F 6E/7E: movd/movq between GPRs/memory and xmm, and
// the F3 0F 7E xmm<-xmm/m64 movq form.
func (d *dec) movDQ(opc, sel byte) (*x86.Inst, error) {
	if sel == 0xF3 && opc == 0x7E { // movq xmm/m64 -> xmm
		m, err := d.modRM()
		if err != nil {
			return nil, err
		}
		return d.inst(x86.Mnem{Op: x86.OpMOVQX}, rmXMM(m), x86.RegOp(xmm(m.regNum))), nil
	}
	if sel != 0x66 {
		return nil, d.errf("unsupported SSE form %#x 0F %02X", sel, opc)
	}
	op := x86.OpMOVD
	w := x86.W32
	if d.rexW() {
		op, w = x86.OpMOVQX, x86.W64
	}
	m, err := d.modRM()
	if err != nil {
		return nil, err
	}
	if opc == 0x6E { // GPR/mem -> xmm
		return d.inst(x86.Mnem{Op: op}, d.rmOp(m, w), x86.RegOp(xmm(m.regNum))), nil
	}
	// xmm -> GPR/mem
	return d.inst(x86.Mnem{Op: op}, x86.RegOp(xmm(m.regNum)), d.rmOp(m, w)), nil
}
