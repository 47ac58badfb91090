package decode

import (
	"reflect"
	"testing"

	"mao/internal/x86"
	"mao/internal/x86/encode"
)

// TestTableSync proves the decoder's group coverage is exactly the
// encoder's: every op in an encode/forms.go group table decodes, and
// the decoder's derived tables contain nothing else. Because the
// decoder builds its tables from encode's exported copies, a failure
// here means the reversal lost an entry (e.g. two ops colliding on a
// digit) — the drift the sync design exists to prevent.
func TestTableSync(t *testing.T) {
	want := make(map[x86.Op]bool)
	for op := range encode.ALUForms() {
		want[op] = true
	}
	for op := range encode.ShiftDigits() {
		want[op] = true
	}
	for op := range encode.Group3Digits() {
		want[op] = true
	}
	for op := range encode.PrefetchDigits() {
		want[op] = true
	}
	for op := range encode.SSEArithForms() {
		want[op] = true
	}
	got := GroupOps()
	for op := range want {
		if !got[op] {
			t.Errorf("op %v encodes (group tables) but does not decode", op)
		}
	}
	for op := range got {
		if !want[op] {
			t.Errorf("op %v decodes but is not in the encoder's group tables", op)
		}
	}
}

// syncCases builds one instruction per encoder form: every group
// member across operand shapes and widths, plus the irregular
// (non-tabular) opcodes. TestDecodeEncodeInverse pushes each through
// encode→decode and requires the identity decode(encode(x)) == x.
func syncCases() []*x86.Inst {
	ins := func(m x86.Mnem, args ...x86.Operand) *x86.Inst {
		return x86.NewInst(m, args...)
	}
	reg := func(w x86.Width) x86.Operand { // a plain non-accumulator register
		return x86.RegOp(x86.RBX.WithWidth(w))
	}
	hiReg := func(w x86.Width) x86.Operand { // a REX-extended register
		return x86.RegOp(x86.R10.WithWidth(w))
	}
	acc := func(w x86.Width) x86.Operand {
		return x86.RegOp(x86.RAX.WithWidth(w))
	}
	mems := []x86.Mem{
		{Base: x86.RDI},
		{Base: x86.RBP, Disp: -8},
		{Base: x86.R13},
		{Base: x86.RSP, Disp: 4},
		{Base: x86.R12},
		{Base: x86.RAX, Index: x86.RCX, Scale: 4, Disp: -32},
		{Index: x86.RBX, Scale: 8},
		{Base: x86.RIP, Disp: 0x40},
		{Disp: 0x1000},
		{Base: x86.RDX, Disp: 0x12345},
	}
	mem := x86.MemOp(mems[0])
	widths := []x86.Width{x86.W8, x86.W16, x86.W32, x86.W64}
	xmm0, xmm9 := x86.RegOp(x86.XMM0), x86.RegOp(x86.XMM9)

	var out []*x86.Inst

	// ALU group: imm8/imm32/acc forms, MR, RM, across widths and
	// addressing modes.
	for op := range encode.ALUForms() {
		for _, w := range widths {
			m := x86.Mnem{Op: op, Width: w}
			out = append(out,
				ins(m, x86.Imm(3), reg(w)),
				ins(m, x86.Imm(3), acc(w)), // W8 acc hits the base+4 short form
				ins(m, x86.Imm(3), mem),
				ins(m, reg(w), hiReg(w)),
				ins(m, reg(w), mem),
				ins(m, mem, reg(w)),
			)
			if w != x86.W8 {
				out = append(out,
					ins(m, x86.Imm(0x1234), acc(w)), // base+5 accumulator short form
					ins(m, x86.Imm(0x1234), reg(w)), // 81 /digit
				)
			}
		}
	}
	// Every addressing form once.
	for _, mm := range mems {
		out = append(out, ins(x86.Mnem{Op: x86.OpADD, Width: x86.W32},
			x86.Imm(7), x86.MemOp(mm)))
	}

	// Shift group: implicit-1, imm8 and %cl forms.
	for op := range encode.ShiftDigits() {
		for _, w := range widths {
			m := x86.Mnem{Op: op, Width: w}
			out = append(out,
				ins(m, reg(w)), // D0/D1 one-operand form
				ins(m, x86.Imm(5), reg(w)),
				ins(m, x86.Imm(5), mem),
				ins(m, x86.RegOp(x86.CL), reg(w)),
			)
		}
	}

	// Group 3 (not/neg/mul/imul/div/idiv), one-operand.
	for op := range encode.Group3Digits() {
		for _, w := range widths {
			m := x86.Mnem{Op: op, Width: w}
			out = append(out, ins(m, reg(w)), ins(m, hiReg(w)), ins(m, mem))
		}
	}

	// Prefetch hints.
	for op := range encode.PrefetchDigits() {
		out = append(out, ins(x86.Mnem{Op: op}, mem))
	}

	// Regular SSE arithmetic: register and memory sources.
	for op := range encode.SSEArithForms() {
		out = append(out,
			ins(x86.Mnem{Op: op}, xmm9, xmm0),
			ins(x86.Mnem{Op: op}, mem, xmm9),
		)
	}

	// MOV: MR/RM/imm forms, movabs, the mod-11 C6/C7 forms.
	for _, w := range widths {
		m := x86.Mnem{Op: x86.OpMOV, Width: w}
		out = append(out,
			ins(m, reg(w), hiReg(w)),
			ins(m, reg(w), mem),
			ins(m, mem, reg(w)),
			ins(m, x86.Imm(17), reg(w)), // B0+r / B8+r / REX.W C7
			ins(m, x86.Imm(17), mem),    // C6 / C7
		)
	}
	out = append(out,
		ins(x86.Mnem{Op: x86.OpMOVABS, Width: x86.W64},
			x86.Imm(0x123456789abcdef0), reg(x86.W64)),
		ins(x86.Mnem{Op: x86.OpMOV, Width: x86.W8}, x86.Imm(1), x86.RegOp(x86.AH)),
		ins(x86.Mnem{Op: x86.OpMOV, Width: x86.W8}, x86.Imm(1), x86.RegOp(x86.DIL)),
	)

	// MOVZX/MOVSX including movslq.
	for _, op := range []x86.Op{x86.OpMOVZX, x86.OpMOVSX} {
		out = append(out,
			ins(x86.Mnem{Op: op, Width: x86.W32, SrcWidth: x86.W8}, x86.RegOp(x86.BL), reg(x86.W32)),
			ins(x86.Mnem{Op: op, Width: x86.W64, SrcWidth: x86.W8}, mem, reg(x86.W64)),
			ins(x86.Mnem{Op: op, Width: x86.W32, SrcWidth: x86.W16}, x86.RegOp(x86.BX), reg(x86.W32)),
			ins(x86.Mnem{Op: op, Width: x86.W64, SrcWidth: x86.W16}, mem, hiReg(x86.W64)),
			ins(x86.Mnem{Op: op, Width: x86.W16, SrcWidth: x86.W8}, x86.RegOp(x86.BL), reg(x86.W16)),
		)
	}
	out = append(out, ins(x86.Mnem{Op: x86.OpMOVSX, Width: x86.W64, SrcWidth: x86.W32},
		reg(x86.W32), hiReg(x86.W64)))

	// LEA, PUSH/POP, XCHG, CMOV, INC/DEC, IMUL, TEST, SET.
	for _, w := range []x86.Width{x86.W16, x86.W32, x86.W64} {
		out = append(out, ins(x86.Mnem{Op: x86.OpLEA, Width: w}, mem, reg(w)))
	}
	out = append(out,
		ins(x86.Mnem{Op: x86.OpPUSH}, reg(x86.W64)),
		ins(x86.Mnem{Op: x86.OpPUSH}, hiReg(x86.W64)),
		ins(x86.Mnem{Op: x86.OpPUSH}, x86.Imm(5)),
		ins(x86.Mnem{Op: x86.OpPUSH}, x86.Imm(0x1234)),
		ins(x86.Mnem{Op: x86.OpPUSH}, mem),
		ins(x86.Mnem{Op: x86.OpPOP}, reg(x86.W64)),
		ins(x86.Mnem{Op: x86.OpPOP}, hiReg(x86.W64)),
		ins(x86.Mnem{Op: x86.OpPOP}, mem),
	)
	for _, w := range []x86.Width{x86.W16, x86.W32, x86.W64} {
		out = append(out,
			ins(x86.Mnem{Op: x86.OpXCHG, Width: w}, reg(w), acc(w)), // 90+r short form
			ins(x86.Mnem{Op: x86.OpXCHG, Width: w}, reg(w), hiReg(w)),
		)
	}
	out = append(out,
		ins(x86.Mnem{Op: x86.OpXCHG, Width: x86.W8}, x86.RegOp(x86.BL), x86.RegOp(x86.CL)),
		ins(x86.Mnem{Op: x86.OpXCHG, Width: x86.W32}, x86.RegOp(x86.EBX), mem),
	)
	for cc := x86.Cond(0); cc < 16; cc++ {
		out = append(out,
			ins(x86.Mnem{Op: x86.OpCMOV, Cond: cc, Width: x86.W64}, reg(x86.W64), hiReg(x86.W64)),
			ins(x86.Mnem{Op: x86.OpSET, Cond: cc}, x86.RegOp(x86.BL)),
		)
	}
	out = append(out,
		ins(x86.Mnem{Op: x86.OpCMOV, Cond: 4, Width: x86.W32}, mem, reg(x86.W32)),
		ins(x86.Mnem{Op: x86.OpSET, Cond: 5}, mem),
	)
	for _, w := range widths {
		out = append(out,
			ins(x86.Mnem{Op: x86.OpINC, Width: w}, reg(w)),
			ins(x86.Mnem{Op: x86.OpDEC, Width: w}, mem),
		)
	}
	for _, w := range []x86.Width{x86.W16, x86.W32, x86.W64} {
		out = append(out,
			ins(x86.Mnem{Op: x86.OpIMUL, Width: w}, mem, reg(w)),                  // 0F AF
			ins(x86.Mnem{Op: x86.OpIMUL, Width: w}, reg(w), hiReg(w)),             // 0F AF reg
			ins(x86.Mnem{Op: x86.OpIMUL, Width: w}, x86.Imm(7), reg(w), hiReg(w)), // 6B
			ins(x86.Mnem{Op: x86.OpIMUL, Width: w}, x86.Imm(0x1234), mem, reg(w)), // 69
		)
	}
	for _, w := range widths {
		m := x86.Mnem{Op: x86.OpTEST, Width: w}
		out = append(out,
			ins(m, x86.Imm(3), acc(w)), // A8/A9
			ins(m, x86.Imm(3), reg(w)), // F6/F7 /0
			ins(m, x86.Imm(3), mem),
			ins(m, reg(w), hiReg(w)), // 84/85
			ins(m, reg(w), mem),
		)
	}

	// No-operand opcodes and NOP widths.
	out = append(out,
		ins(x86.Mnem{Op: x86.OpRET}),
		ins(x86.Mnem{Op: x86.OpLEAVE}),
		ins(x86.Mnem{Op: x86.OpCLTQ}),
		ins(x86.Mnem{Op: x86.OpCLTD}),
		ins(x86.Mnem{Op: x86.OpCQTO}),
		ins(x86.Mnem{Op: x86.OpCWTL}),
		ins(x86.Mnem{Op: x86.OpNOP}),
		ins(x86.Mnem{Op: x86.OpNOP, Width: x86.W16}),
		ins(x86.Mnem{Op: x86.OpNOP, Width: x86.W32}, mem),
		ins(x86.Mnem{Op: x86.OpNOP, Width: x86.W16}, mem),
		ins(x86.Mnem{Op: x86.OpUD2}),
		ins(x86.Mnem{Op: x86.OpHLT}),
		ins(x86.Mnem{Op: x86.OpPAUSE}),
	)

	// Indirect branches (direct ones carry labels; they are exercised
	// by the lift tests).
	star := func(o x86.Operand) x86.Operand { o.Star = true; return o }
	out = append(out,
		ins(x86.Mnem{Op: x86.OpCALL}, star(x86.RegOp(x86.RAX))),
		ins(x86.Mnem{Op: x86.OpJMP}, star(x86.RegOp(x86.R11))),
		ins(x86.Mnem{Op: x86.OpCALL}, star(mem)),
		ins(x86.Mnem{Op: x86.OpJMP}, star(mem)),
	)

	// SSE moves, movd/movq and conversions.
	for _, op := range []x86.Op{x86.OpMOVSS, x86.OpMOVSD, x86.OpMOVAPS,
		x86.OpMOVUPS, x86.OpMOVDQA, x86.OpMOVDQU} {
		out = append(out,
			ins(x86.Mnem{Op: op}, mem, xmm9),  // load
			ins(x86.Mnem{Op: op}, xmm9, mem),  // store
			ins(x86.Mnem{Op: op}, xmm9, xmm0), // reg-reg (load form)
		)
	}
	out = append(out,
		ins(x86.Mnem{Op: x86.OpMOVD}, x86.RegOp(x86.EDI), xmm0),
		ins(x86.Mnem{Op: x86.OpMOVD}, xmm0, x86.RegOp(x86.EDI)),
		ins(x86.Mnem{Op: x86.OpMOVD}, mem, xmm9),
		ins(x86.Mnem{Op: x86.OpMOVD}, xmm9, mem),
		ins(x86.Mnem{Op: x86.OpMOVQX}, x86.RegOp(x86.RDI), xmm0),
		ins(x86.Mnem{Op: x86.OpMOVQX}, xmm0, x86.RegOp(x86.RDI)),
		ins(x86.Mnem{Op: x86.OpMOVQX}, xmm9, xmm0), // F3 0F 7E
		ins(x86.Mnem{Op: x86.OpMOVQX}, mem, xmm0),
		ins(x86.Mnem{Op: x86.OpCVTSI2SS, Width: x86.W32}, x86.RegOp(x86.EDI), xmm0),
		ins(x86.Mnem{Op: x86.OpCVTSI2SS, Width: x86.W64}, x86.RegOp(x86.RDI), xmm0),
		ins(x86.Mnem{Op: x86.OpCVTSI2SD, Width: x86.W32}, mem, xmm9),
		ins(x86.Mnem{Op: x86.OpCVTSI2SD, Width: x86.W64}, x86.RegOp(x86.R10), xmm0),
		ins(x86.Mnem{Op: x86.OpCVTTSS2SI, Width: x86.W32}, xmm9, x86.RegOp(x86.EAX)),
		ins(x86.Mnem{Op: x86.OpCVTTSS2SI, Width: x86.W64}, mem, x86.RegOp(x86.RAX)),
		ins(x86.Mnem{Op: x86.OpCVTTSD2SI, Width: x86.W32}, xmm0, x86.RegOp(x86.R10D)),
		ins(x86.Mnem{Op: x86.OpCVTTSD2SI, Width: x86.W64}, xmm0, x86.RegOp(x86.R10)),
	)

	// Lock-prefixed read-modify-write.
	locked := ins(x86.Mnem{Op: x86.OpADD, Width: x86.W32}, x86.Imm(1), mem)
	locked.Lock = true
	out = append(out, locked)

	return out
}

// TestDecodeEncodeInverse: decode(encode(x)) == x for one instance of
// every instruction form the encoder supports, and the re-encoding of
// the decoded instruction reproduces the bytes. Together with
// TestTableSync this is the decode↔encode oracle over the encoder's
// whole surface.
func TestDecodeEncodeInverse(t *testing.T) {
	for _, in := range syncCases() {
		b, err := encode.Encode(in, &encode.Ctx{})
		if err != nil {
			t.Errorf("%s: encode: %v", in, err)
			continue
		}
		r, err := One(b, 0)
		if err != nil {
			t.Errorf("%s (%x): decode: %v", in, b, err)
			continue
		}
		if r.Len != len(b) {
			t.Errorf("%s (%x): decoded %d of %d bytes", in, b, r.Len, len(b))
			continue
		}
		if !reflect.DeepEqual(r.Inst, in) {
			t.Errorf("%s (%x): decoded to %s\n got %#v\nwant %#v", in, b, r.Inst, r.Inst, in)
			continue
		}
		b2, err := encode.Encode(r.Inst, &encode.Ctx{})
		if err != nil {
			t.Errorf("%s: re-encode: %v", in, err)
			continue
		}
		if string(b2) != string(b) {
			t.Errorf("%s: re-encodes to %x, want %x", in, b2, b)
		}
	}

	// Byte forms the encoder never emits must still lift to the
	// canonical instruction: xchg with the accumulator in the ModRM
	// reg field re-encodes as the 90+r short form, so it lifts in that
	// form's (r, acc) operand order.
	for _, hex := range []string{"87c7", "6687c7", "4887c7", "87c6", "4987c0"} {
		b := mustHex(t, hex)
		r, err := One(b, 0)
		if err != nil {
			t.Errorf("%s: decode: %v", hex, err)
			continue
		}
		b2, err := encode.Encode(r.Inst, &encode.Ctx{})
		if err != nil {
			t.Errorf("%s (%s): encode: %v", hex, r.Inst, err)
			continue
		}
		r2, err := One(b2, 0)
		if err != nil {
			t.Errorf("%s: re-encoding %x does not decode: %v", hex, b2, err)
			continue
		}
		if !reflect.DeepEqual(r2.Inst, r.Inst) {
			t.Errorf("%s: decode(encode(x)) != x: %s, then %s", hex, r.Inst, r2.Inst)
		}
	}
}
