package x86

// Inst is the single concrete instruction representation used
// throughout MAO, mirroring the original system's one-C-struct-per-
// instruction design. Operands are stored in AT&T order (sources
// first, destination last).
type Inst struct {
	Op       Op
	Cond     Cond  // condition for OpJCC/OpSET/OpCMOV
	Width    Width // principal (destination) operand width
	SrcWidth Width // source width for OpMOVZX/OpMOVSX
	Args     []Operand
	Lock     bool // lock prefix
}

// NewInst builds an instruction from a decoded mnemonic and operands,
// inferring the width from register operands when the mnemonic carried
// no suffix.
func NewInst(m Mnem, args ...Operand) *Inst {
	in := &Inst{Op: m.Op, Cond: m.Cond, Width: m.Width, SrcWidth: m.SrcWidth, Args: args}
	in.InferWidth()
	return in
}

// InferWidth fills in Width from register operands if it is unset.
// AT&T syntax permits "mov %eax, %ebx" without a suffix; the operand
// registers determine the width. For movzx/movsx the first operand
// determines SrcWidth when it is a register.
func (in *Inst) InferWidth() {
	if in.Width == W0 {
		// The destination (last operand) wins; fall back to any
		// register operand.
		for i := len(in.Args) - 1; i >= 0; i-- {
			a := in.Args[i]
			if a.Kind == KindReg && !a.Star && a.Reg.IsGPR() {
				in.Width = a.Reg.Width()
				break
			}
		}
	}
	if (in.Op == OpMOVZX || in.Op == OpMOVSX) && in.SrcWidth == W0 {
		if len(in.Args) > 0 && in.Args[0].Kind == KindReg {
			in.SrcWidth = in.Args[0].Reg.Width()
		}
	}
	// Fixed-width opcodes.
	switch in.Op {
	case OpSET:
		in.Width = W8
	case OpPUSH, OpPOP, OpCALL, OpRET, OpLEAVE:
		if in.Width == W0 {
			in.Width = W64
		}
	}
}

// Mnem returns the decoded mnemonic fields of the instruction.
func (in *Inst) Mnem() Mnem {
	return Mnem{Op: in.Op, Cond: in.Cond, Width: in.Width, SrcWidth: in.SrcWidth}
}

// Mnemonic returns the canonical AT&T mnemonic, e.g. "addq" or "jne".
func (in *Inst) Mnemonic() string { return in.Mnem().Mnemonic() }

// String renders the instruction in AT&T syntax, e.g.
// "movl %edx, (%rsi,%r8,4)".
func (in *Inst) String() string {
	return string(in.AppendTo(make([]byte, 0, 96)))
}

// AppendTo appends the instruction in AT&T syntax — prefix, mnemonic,
// operands — to dst and returns the extended buffer. It allocates only
// to grow dst.
func (in *Inst) AppendTo(dst []byte) []byte {
	if in.Lock {
		dst = append(dst, "lock "...)
	}
	dst = in.Mnem().appendTo(dst)
	for i := range in.Args {
		if i == 0 {
			dst = append(dst, '\t')
		} else {
			dst = append(dst, ", "...)
		}
		dst = in.Args[i].AppendTo(dst)
	}
	return dst
}

// Clone returns a deep copy of the instruction.
func (in *Inst) Clone() *Inst {
	cp := *in
	cp.Args = append([]Operand(nil), in.Args...)
	return &cp
}

// Dst returns the destination operand (the last one) or a zero Operand
// for operand-less instructions.
func (in *Inst) Dst() Operand {
	if len(in.Args) == 0 {
		return Operand{}
	}
	return in.Args[len(in.Args)-1]
}

// Src returns the first source operand or a zero Operand.
func (in *Inst) Src() Operand {
	if len(in.Args) == 0 {
		return Operand{}
	}
	return in.Args[0]
}

// BranchTarget returns the direct branch-target symbol and true when
// the instruction is a direct jump/call/conditional branch. Indirect
// branches and non-branches return "", false.
func (in *Inst) BranchTarget() (string, bool) {
	if !in.Op.IsBranch() || in.Op == OpRET {
		return "", false
	}
	if len(in.Args) == 1 && in.Args[0].Kind == KindLabel && !in.Args[0].Star {
		return in.Args[0].Sym, true
	}
	return "", false
}

// IsIndirectBranch reports whether the instruction is an indirect jump
// or call (*%rax, *(%rax,...)).
func (in *Inst) IsIndirectBranch() bool {
	if in.Op != OpJMP && in.Op != OpCALL {
		return false
	}
	return len(in.Args) == 1 && in.Args[0].Star
}

// IsNop reports whether the instruction is a no-op of any encoding MAO
// emits (plain nop; the multi-byte forms are represented as OpNOP with
// a width hint via Args in the encoder, not here).
func (in *Inst) IsNop() bool { return in.Op == OpNOP }

// MemArg returns a pointer to the first memory operand and its index,
// or nil, -1 when the instruction has none.
func (in *Inst) MemArg() (*Operand, int) {
	for i := range in.Args {
		if in.Args[i].Kind == KindMem {
			return &in.Args[i], i
		}
	}
	return nil, -1
}

// ReadsMemory reports whether the instruction loads from memory
// (ignoring instruction fetch). Stores that also read (read-modify-
// write ALU ops on memory) count as reads.
func (in *Inst) ReadsMemory() bool {
	m, i := in.MemArg()
	if m == nil {
		return false
	}
	if m.Star {
		return true // indirect jump/call through memory loads the target
	}
	if in.Op == OpLEA {
		return false // lea only computes the address
	}
	switch in.Op {
	case OpMOV, OpMOVABS, OpMOVZX, OpMOVSX, OpMOVSS, OpMOVSD, OpMOVAPS,
		OpMOVUPS, OpMOVDQA, OpMOVDQU, OpMOVD, OpMOVQX:
		// Pure moves read memory only when memory is the source.
		return i != len(in.Args)-1
	case OpPUSH:
		return true
	case OpPOP:
		return false
	case OpSET:
		return false
	}
	return true
}

// WritesMemory reports whether the instruction stores to memory.
func (in *Inst) WritesMemory() bool {
	m, i := in.MemArg()
	if m == nil {
		return in.Op == OpPUSH || in.Op == OpCALL
	}
	if m.Star {
		return in.Op == OpCALL // the call still pushes a return address
	}
	if in.Op == OpLEA || in.Op == OpCMP || in.Op == OpTEST ||
		in.Op == OpUCOMISS || in.Op == OpUCOMISD ||
		in.Op == OpCOMISS || in.Op == OpCOMISD ||
		in.Op == OpPREFETCHNTA || in.Op == OpPREFETCHT0 ||
		in.Op == OpPREFETCHT1 || in.Op == OpPREFETCHT2 {
		return false
	}
	// For everything else a memory destination means a store.
	return i == len(in.Args)-1 || in.Op == OpPUSH
}
