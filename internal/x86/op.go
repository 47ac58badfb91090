package x86

import (
	"fmt"
	"strings"
)

// Op is a base opcode, independent of operand width and (for
// conditional instructions) of the condition code. The AT&T mnemonic
// "addq" parses to OpADD with Width W64; "jne" parses to OpJCC with
// Cond CondNE.
type Op uint16

// Base opcodes.
const (
	OpInvalid Op = iota

	// Data movement.
	OpMOV
	OpMOVABS
	OpMOVZX // movz{b,w}{w,l,q}
	OpMOVSX // movs{b,w,l}{w,l,q}; movslq is OpMOVSX with SrcWidth W32
	OpLEA
	OpPUSH
	OpPOP
	OpXCHG
	OpCMOV // cmovcc

	// Integer arithmetic.
	OpADD
	OpSUB
	OpADC
	OpSBB
	OpCMP
	OpINC
	OpDEC
	OpNEG
	OpIMUL
	OpMUL
	OpIDIV
	OpDIV

	// Logic.
	OpAND
	OpOR
	OpXOR
	OpNOT
	OpTEST

	// Shifts and rotates.
	OpSHL
	OpSHR
	OpSAR
	OpROL
	OpROR

	// Control flow.
	OpJMP
	OpJCC // jcc
	OpCALL
	OpRET
	OpLEAVE
	OpSET // setcc

	// Sign-extension idioms.
	OpCLTQ // cltq: sign-extend eax into rax
	OpCLTD // cltd: sign-extend eax into edx:eax
	OpCQTO // cqto: sign-extend rax into rdx:rax
	OpCWTL // cwtl: sign-extend ax into eax

	// Miscellaneous.
	OpNOP
	OpUD2
	OpHLT
	OpPAUSE
	OpPREFETCHNTA
	OpPREFETCHT0
	OpPREFETCHT1
	OpPREFETCHT2

	// SSE scalar/packed (the subset compiler output in our domain uses).
	OpMOVSS
	OpMOVSD
	OpMOVAPS
	OpMOVUPS
	OpMOVDQA
	OpMOVDQU
	OpMOVD  // movd: GPR32/mem <-> xmm
	OpMOVQX // SSE movq: GPR64/mem <-> xmm
	OpADDSS
	OpADDSD
	OpSUBSS
	OpSUBSD
	OpMULSS
	OpMULSD
	OpDIVSS
	OpDIVSD
	OpXORPS
	OpXORPD
	OpANDPS
	OpANDPD
	OpSQRTSS
	OpSQRTSD
	OpUCOMISS
	OpUCOMISD
	OpCOMISS
	OpCOMISD
	OpCVTSI2SS
	OpCVTSI2SD
	OpCVTTSS2SI
	OpCVTTSD2SI
	OpCVTSS2SD
	OpCVTSD2SS
	OpPXOR

	numOps
)

// NumOps is the number of defined opcodes (including OpInvalid); valid
// Op values are strictly below it. Dense per-opcode tables size
// themselves with it.
const NumOps = int(numOps)

// opNames is indexed by opcode; OpInvalid has no name.
var opNames = [NumOps]string{
	OpMOV: "mov", OpMOVABS: "movabs", OpMOVZX: "movz", OpMOVSX: "movs",
	OpLEA: "lea", OpPUSH: "push", OpPOP: "pop", OpXCHG: "xchg", OpCMOV: "cmov",
	OpADD: "add", OpSUB: "sub", OpADC: "adc", OpSBB: "sbb", OpCMP: "cmp",
	OpINC: "inc", OpDEC: "dec", OpNEG: "neg",
	OpIMUL: "imul", OpMUL: "mul", OpIDIV: "idiv", OpDIV: "div",
	OpAND: "and", OpOR: "or", OpXOR: "xor", OpNOT: "not", OpTEST: "test",
	OpSHL: "shl", OpSHR: "shr", OpSAR: "sar", OpROL: "rol", OpROR: "ror",
	OpJMP: "jmp", OpJCC: "j", OpCALL: "call", OpRET: "ret", OpLEAVE: "leave",
	OpSET:  "set",
	OpCLTQ: "cltq", OpCLTD: "cltd", OpCQTO: "cqto", OpCWTL: "cwtl",
	OpNOP: "nop", OpUD2: "ud2", OpHLT: "hlt", OpPAUSE: "pause",
	OpPREFETCHNTA: "prefetchnta", OpPREFETCHT0: "prefetcht0",
	OpPREFETCHT1: "prefetcht1", OpPREFETCHT2: "prefetcht2",
	OpMOVSS: "movss", OpMOVSD: "movsd", OpMOVAPS: "movaps", OpMOVUPS: "movups",
	OpMOVDQA: "movdqa", OpMOVDQU: "movdqu", OpMOVD: "movd", OpMOVQX: "movq",
	OpADDSS: "addss", OpADDSD: "addsd", OpSUBSS: "subss", OpSUBSD: "subsd",
	OpMULSS: "mulss", OpMULSD: "mulsd", OpDIVSS: "divss", OpDIVSD: "divsd",
	OpXORPS: "xorps", OpXORPD: "xorpd", OpANDPS: "andps", OpANDPD: "andpd",
	OpSQRTSS: "sqrtss", OpSQRTSD: "sqrtsd",
	OpUCOMISS: "ucomiss", OpUCOMISD: "ucomisd",
	OpCOMISS: "comiss", OpCOMISD: "comisd",
	OpCVTSI2SS: "cvtsi2ss", OpCVTSI2SD: "cvtsi2sd",
	OpCVTTSS2SI: "cvttss2si", OpCVTTSD2SI: "cvttsd2si",
	OpCVTSS2SD: "cvtss2sd", OpCVTSD2SS: "cvtsd2ss",
	OpPXOR: "pxor",
}

// String returns the base (unsuffixed) name of the opcode.
func (o Op) String() string {
	if int(o) < NumOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// IsBranch reports whether the opcode transfers control (jumps, calls,
// returns). Conditional moves and sets are not branches.
func (o Op) IsBranch() bool {
	switch o {
	case OpJMP, OpJCC, OpCALL, OpRET:
		return true
	}
	return false
}

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return o == OpJCC }

// IsSSE reports whether the opcode is an SSE floating-point/integer
// vector operation.
func (o Op) IsSSE() bool { return o >= OpMOVSS && o <= OpPXOR }

// HasWidthSuffix reports whether AT&T syntax spells this opcode with an
// optional b/w/l/q width suffix (e.g. "addl"). Opcodes with fixed
// spellings (jmp, ret, SSE ops, ...) return false.
func (o Op) HasWidthSuffix() bool {
	switch o {
	case OpMOV, OpMOVABS, OpLEA, OpPUSH, OpPOP, OpXCHG,
		OpADD, OpSUB, OpADC, OpSBB, OpCMP, OpINC, OpDEC, OpNEG,
		OpIMUL, OpMUL, OpIDIV, OpDIV,
		OpAND, OpOR, OpXOR, OpNOT, OpTEST,
		OpSHL, OpSHR, OpSAR, OpROL, OpROR, OpCMOV:
		return true
	}
	return false
}

var suffixWidth = map[byte]Width{'b': W8, 'w': W16, 'l': W32, 'q': W64}

// widthSuffix is the inverse of suffixWidth.
func widthSuffix(w Width) string {
	switch w {
	case W8:
		return "b"
	case W16:
		return "w"
	case W32:
		return "l"
	case W64:
		return "q"
	}
	return ""
}

// fixedMnemonics maps spellings that are complete mnemonics on their
// own (no suffix or condition processing required).
var fixedMnemonics = map[string]Op{
	"lea": OpLEA, "leave": OpLEAVE, "ret": OpRET, "retq": OpRET,
	"jmp": OpJMP, "jmpq": OpJMP, "call": OpCALL, "callq": OpCALL,
	"cltq": OpCLTQ, "cltd": OpCLTD, "cqto": OpCQTO, "cwtl": OpCWTL,
	"nop": OpNOP, "ud2": OpUD2, "hlt": OpHLT, "pause": OpPAUSE,
	"prefetchnta": OpPREFETCHNTA, "prefetcht0": OpPREFETCHT0,
	"prefetcht1": OpPREFETCHT1, "prefetcht2": OpPREFETCHT2,
	"movss": OpMOVSS, "movaps": OpMOVAPS, "movups": OpMOVUPS,
	"movdqa": OpMOVDQA, "movdqu": OpMOVDQU, "movd": OpMOVD,
	"addss": OpADDSS, "addsd": OpADDSD, "subss": OpSUBSS, "subsd": OpSUBSD,
	"mulss": OpMULSS, "mulsd": OpMULSD, "divss": OpDIVSS, "divsd": OpDIVSD,
	"xorps": OpXORPS, "xorpd": OpXORPD, "andps": OpANDPS, "andpd": OpANDPD,
	"sqrtss": OpSQRTSS, "sqrtsd": OpSQRTSD,
	"ucomiss": OpUCOMISS, "ucomisd": OpUCOMISD,
	"comiss": OpCOMISS, "comisd": OpCOMISD,
	"cvtss2sd": OpCVTSS2SD, "cvtsd2ss": OpCVTSD2SS,
	"pxor": OpPXOR,
}

// suffixedBases maps the stem of width-suffixed ALU/mov mnemonics.
var suffixedBases = map[string]Op{
	"mov": OpMOV, "movabs": OpMOVABS, "lea": OpLEA,
	"push": OpPUSH, "pop": OpPOP, "xchg": OpXCHG,
	"add": OpADD, "sub": OpSUB, "adc": OpADC, "sbb": OpSBB, "cmp": OpCMP,
	"inc": OpINC, "dec": OpDEC, "neg": OpNEG,
	"imul": OpIMUL, "mul": OpMUL, "idiv": OpIDIV, "div": OpDIV,
	"and": OpAND, "or": OpOR, "xor": OpXOR, "not": OpNOT, "test": OpTEST,
	"shl": OpSHL, "shr": OpSHR, "sal": OpSHL, "sar": OpSAR,
	"rol": OpROL, "ror": OpROR, "nop": OpNOP,
}

// Mnem is the decoded form of an AT&T mnemonic.
type Mnem struct {
	Op       Op
	Cond     Cond  // condition for jcc/setcc/cmovcc
	Width    Width // operand width implied by the suffix (W0 if none)
	SrcWidth Width // source width for movzx/movsx
}

// cvtStems are the SSE conversions that take an optional GPR width
// suffix (cvtsi2sdq, cvttss2sil).
var cvtStems = map[string]Op{
	"cvtsi2ss": OpCVTSI2SS, "cvtsi2sd": OpCVTSI2SD,
	"cvttss2si": OpCVTTSS2SI, "cvttsd2si": OpCVTTSD2SI,
}

// condFamilies are the conditional mnemonic prefixes. A spelling that
// starts with one of them is a conditional instruction or nothing.
var condFamilies = [...]struct {
	prefix  string
	op      Op
	suffix  bool  // takes an optional width suffix after the condition
	implied Width // width the family fixes
}{
	{"cmov", OpCMOV, true, W0},
	{"set", OpSET, false, W8},
	{"j", OpJCC, false, W0},
}

// mnemonics maps every accepted lower-case spelling to its decoded
// form; buildMnemonics derives it from the tables above once, so a
// lookup is one hash.
var mnemonics = buildMnemonics()

// buildMnemonics enumerates every spelling the AT&T grammar accepts.
// Families are entered from the loosest to the most specific, so a
// later one overrides an earlier reading of the same spelling: bare
// stems, then width-suffixed stems, movz/movs with two width letters,
// the conditional families, the cvt conversions, the fixed spellings
// and last movsd (the SSE move; string-move movs is unsupported, so it
// is not ambiguous here). The families' spellings are disjoint apart
// from those overrides, which TestMnemonicTable checks spelling by
// spelling against the rule-by-rule decoder.
func buildMnemonics() map[string]Mnem {
	t := make(map[string]Mnem, 512)
	suffixes := [...]byte{'b', 'w', 'l', 'q'}
	for stem, op := range suffixedBases {
		t[stem] = Mnem{Op: op}
	}
	for stem, op := range suffixedBases {
		for _, s := range suffixes {
			t[stem+string(s)] = Mnem{Op: op, Width: suffixWidth[s]}
		}
	}
	for _, s := range suffixes {
		for _, d := range suffixes {
			src, dst := suffixWidth[s], suffixWidth[d]
			if src >= dst {
				continue
			}
			// movzlq does not exist (32-bit ops zero-extend implicitly).
			if src != W32 {
				t["movz"+string(s)+string(d)] = Mnem{Op: OpMOVZX, Width: dst, SrcWidth: src}
			}
			t["movs"+string(s)+string(d)] = Mnem{Op: OpMOVSX, Width: dst, SrcWidth: src}
		}
	}
	for _, f := range condFamilies {
		for alias := range condAliases {
			tails := []string{""}
			if f.suffix {
				tails = append(tails, "b", "w", "l", "q")
			}
			for _, tail := range tails {
				// cutCond settles a spelling two aliases could split
				// differently ("cmovnel" is ne+l): longest match first.
				c, rest, ok := cutCond(alias + tail)
				if !ok {
					continue
				}
				m := Mnem{Op: f.op, Cond: c, Width: f.implied}
				if rest != "" {
					m.Width = suffixWidth[rest[0]]
				}
				t[f.prefix+alias+tail] = m
			}
		}
	}
	for stem, op := range cvtStems {
		t[stem] = Mnem{Op: op}
		for _, s := range suffixes {
			t[stem+string(s)] = Mnem{Op: op, Width: suffixWidth[s]}
		}
	}
	for m, op := range fixedMnemonics {
		t[m] = Mnem{Op: op}
	}
	t["movsd"] = Mnem{Op: OpMOVSD}
	return t
}

// ParseMnemonic decodes an AT&T mnemonic like "addq", "jne", "movzbl",
// "cmovle" or "cvtsi2sdq" into its constituents, in any letter case.
// The boolean result is false for unrecognized mnemonics.
//
// Width is left W0 where the suffix is absent; the parser later infers
// the width from register operands.
func ParseMnemonic(m string) (Mnem, bool) {
	mn, ok := mnemonics[strings.ToLower(m)]
	return mn, ok
}

// Mnemonic renders the canonical AT&T mnemonic for an instruction with
// the given decoded fields. It is the inverse of ParseMnemonic up to
// suffix normalization (the canonical form always carries an explicit
// width suffix where the syntax allows one).
func (m Mnem) Mnemonic() string {
	return string(m.appendTo(make([]byte, 0, 16)))
}

// appendTo appends the canonical mnemonic to dst (see Mnemonic).
func (m Mnem) appendTo(dst []byte) []byte {
	switch m.Op {
	case OpJCC:
		return append(append(dst, 'j'), m.Cond.String()...)
	case OpSET:
		return append(append(dst, "set"...), m.Cond.String()...)
	case OpCMOV:
		return append(append(dst, "cmov"...), m.Cond.String()...)
	case OpMOVZX:
		return append(append(append(dst, "movz"...), widthSuffix(m.SrcWidth)...), widthSuffix(m.Width)...)
	case OpMOVSX:
		return append(append(append(dst, "movs"...), widthSuffix(m.SrcWidth)...), widthSuffix(m.Width)...)
	case OpCVTSI2SS, OpCVTSI2SD, OpCVTTSS2SI, OpCVTTSD2SI:
		return append(append(dst, m.Op.String()...), widthSuffix(m.Width)...)
	case OpNOP:
		// Multi-byte nops are spelled nopw/nopl like gas emits them.
		return append(append(dst, "nop"...), widthSuffix(m.Width)...)
	}
	dst = append(dst, m.Op.String()...)
	if m.Op.HasWidthSuffix() && m.Width != W0 && m.Op != OpCMOV {
		dst = append(dst, widthSuffix(m.Width)...)
	}
	return dst
}
