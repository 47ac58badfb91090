package asm

import (
	"slices"
	"strings"

	"mao/internal/x86"
)

// Intel-syntax support. Like gas (and therefore like the original
// MAO), the parser accepts Intel-syntax input when the file switches
// modes with ".intel_syntax noprefix" (back with ".att_syntax").
// Instructions are normalized into the same IR — and therefore emit
// as AT&T — so passes never see the difference.

// intelSizes maps Intel memory-size prefixes to operand widths.
var intelSizes = map[string]x86.Width{
	"byte": x86.W8, "word": x86.W16, "dword": x86.W32, "qword": x86.W64,
}

// intelInstruction parses one Intel-syntax instruction statement.
func (p *parser) intelInstruction(s string) error {
	mnemonic, rest := cutWord(s)
	mnemonic = strings.ToLower(mnemonic)

	m, srcWidth, ok := intelMnemonic(mnemonic)
	if !ok {
		return p.errf("unknown mnemonic %q", mnemonic)
	}

	args := p.opBuf[:0]
	var memWidth x86.Width
	branch := m.Op.IsBranch()
	for more := rest != ""; more; {
		var a string
		a, rest, more = cutTop(rest, ',', false)
		op, w, err := p.parseIntelOperand(strings.TrimSpace(a), branch)
		if err != nil {
			return err
		}
		if w != x86.W0 {
			memWidth = w
		}
		args = append(args, op)
	}

	// Intel order is destination-first; the IR stores AT&T order.
	slices.Reverse(args)

	if srcWidth != x86.W0 {
		m.SrcWidth = srcWidth
	}
	if m.Op == x86.OpMOVZX || m.Op == x86.OpMOVSX {
		// The size prefix (or source register) gives the SOURCE
		// width; the destination register gives the operand width.
		if m.SrcWidth == x86.W0 {
			if len(args) > 0 && args[0].Kind == x86.KindReg {
				m.SrcWidth = args[0].Reg.Width()
			} else if memWidth != x86.W0 {
				m.SrcWidth = memWidth
			}
		}
		if len(args) == 2 && args[1].Kind == x86.KindReg {
			m.Width = args[1].Reg.Width()
		}
	} else if m.Width == x86.W0 {
		m.Width = memWidth
	}
	if (m.Op == x86.OpMOV || m.Op == x86.OpMOVQX) && hasXMM(args) {
		m = x86.Mnem{Op: x86.OpMOVQX}
	}
	p.inst(m, args, false)
	return nil
}

// intelMnemonic decodes an Intel mnemonic: no width suffixes; movzx
// and movsx carry the width in their operands.
func intelMnemonic(m string) (x86.Mnem, x86.Width, bool) {
	switch m {
	case "movzx":
		return x86.Mnem{Op: x86.OpMOVZX}, x86.W0, true
	case "movsx", "movsxd":
		return x86.Mnem{Op: x86.OpMOVSX}, x86.W0, true
	}
	mn, ok := x86.ParseMnemonic(m)
	if !ok {
		return x86.Mnem{}, 0, false
	}
	return mn, x86.W0, true
}

// parseIntelOperand parses one Intel operand, returning any memory
// size ("dword ptr") it carried.
func (p *parser) parseIntelOperand(s string, branch bool) (x86.Operand, x86.Width, error) {
	lower := strings.ToLower(s)

	// Optional "SIZE ptr" prefix.
	for name, w := range intelSizes {
		if strings.HasPrefix(lower, name+" ") {
			rest := strings.TrimSpace(s[len(name):])
			if strings.HasPrefix(strings.ToLower(rest), "ptr") {
				rest = strings.TrimSpace(rest[3:])
			}
			op, _, err := p.parseIntelOperand(rest, branch)
			return op, w, err
		}
	}

	// Bracketed memory reference.
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return x86.Operand{}, 0, p.errf("unterminated memory operand %q", s)
		}
		m, err := p.parseIntelMem(s[1 : len(s)-1])
		if err != nil {
			return x86.Operand{}, 0, err
		}
		return x86.MemOp(m), 0, nil
	}

	// Optional AT&T-style % prefix is tolerated in Intel mode.
	name := strings.TrimPrefix(lower, "%")
	if r, ok := x86.RegByName(name); ok {
		return x86.RegOp(r), 0, nil
	}
	if v, ok := parseInt(s); ok {
		if branch {
			return x86.Operand{}, 0, p.errf("numeric branch target %q not supported", s)
		}
		return x86.Imm(v), 0, nil
	}
	sym, off, ok := parseSymExpr(s)
	if !ok {
		return x86.Operand{}, 0, p.errf("bad operand %q", s)
	}
	if branch {
		return x86.Operand{Kind: x86.KindLabel, Sym: sym, Off: off}, 0, nil
	}
	// Bare symbol in Intel mode is a memory reference (rip-relative in
	// 64-bit position-independent practice).
	return x86.MemOp(x86.Mem{Sym: sym, Disp: off, Base: x86.RIP}), 0, nil
}

// parseIntelMem parses the inside of [...]: a '+'/'-' separated sum of
// a base register, an index*scale term, and displacements/symbols.
func (p *parser) parseIntelMem(s string) (x86.Mem, error) {
	var m x86.Mem
	m.Scale = 1
	sign := int64(1)

	term := func(t string) error {
		t = strings.TrimSpace(t)
		if t == "" {
			return p.errf("empty term in memory operand")
		}
		lower := strings.ToLower(strings.TrimPrefix(t, "%"))

		// index*scale (either order).
		if i := strings.IndexByte(t, '*'); i >= 0 {
			a := strings.TrimSpace(t[:i])
			b := strings.TrimSpace(t[i+1:])
			regStr, scaleStr := a, b
			if _, ok := parseInt(a); ok {
				regStr, scaleStr = b, a
			}
			r, ok := x86.RegByName(strings.ToLower(strings.TrimPrefix(regStr, "%")))
			if !ok {
				return p.errf("bad index register %q", regStr)
			}
			sc, ok := parseInt(scaleStr)
			if !ok || (sc != 1 && sc != 2 && sc != 4 && sc != 8) {
				return p.errf("bad scale %q", scaleStr)
			}
			if m.Index != x86.RegNone {
				return p.errf("two index terms in memory operand")
			}
			m.Index, m.Scale = r, uint8(sc)
			return nil
		}
		if r, ok := x86.RegByName(lower); ok {
			if m.Base == x86.RegNone {
				m.Base = r
			} else if m.Index == x86.RegNone {
				m.Index = r
				m.Scale = 1
			} else {
				return p.errf("three registers in memory operand")
			}
			return nil
		}
		if v, ok := parseInt(t); ok {
			m.Disp += sign * v
			return nil
		}
		sym, off, ok := parseSymExpr(t)
		if !ok {
			return p.errf("bad memory term %q", t)
		}
		if m.Sym != "" {
			return p.errf("two symbols in memory operand")
		}
		m.Sym = sym
		m.Disp += sign * off
		return nil
	}

	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '+' || s[i] == '-' {
			if i > start {
				if err := term(s[start:i]); err != nil {
					return m, err
				}
			}
			if i < len(s) && s[i] == '-' {
				sign = -1
			} else {
				sign = 1
			}
			start = i + 1
		}
	}
	return m, nil
}
