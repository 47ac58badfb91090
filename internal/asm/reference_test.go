package asm

import (
	"fmt"
	"strconv"
	"strings"

	"mao/internal/ir"
	"mao/internal/x86"
)

// The reference parser: the line-splitting, allocate-per-record
// parser ParseString replaced, with two fixes applied (marked
// "Fixed"), kept as the oracle for the differential tests in
// differential_test.go and for FuzzParseString. It builds every node,
// instruction and directive with the ir and x86 constructors, probes
// every operand with strconv before reading it as a symbol, and
// decodes mnemonics through x86.ParseMnemonic (whose table has its own
// reference test in package x86).

// refParseString is ParseString as the reference parser.
func refParseString(name, src string) (*ir.Unit, error) {
	p := &refParser{file: name, unit: ir.NewUnit(name)}
	if err := p.parse(src); err != nil {
		return nil, err
	}
	if err := p.unit.Analyze(); err != nil {
		return nil, err
	}
	return p.unit, nil
}

// refParseNodes is ParseNodes as the reference parser.
func refParseNodes(name, src string) ([]*ir.Node, error) {
	p := &refParser{file: name}
	if err := p.parse(src); err != nil {
		return nil, err
	}
	return p.nodes, nil
}

type refParser struct {
	file  string
	unit  *ir.Unit   // the unit parsed nodes join; nil for ParseNodes
	nodes []*ir.Node // the parsed nodes when unit is nil
	line  int
	intel bool // inside .intel_syntax mode
}

func (p *refParser) errf(format string, args ...any) error {
	return &ParseError{File: p.file, Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// append adds a node to the unit (or the node slice) stamped with the
// current source line, so diagnostics can report file:line positions.
func (p *refParser) append(n *ir.Node) {
	n.Line = p.line
	if p.unit == nil {
		p.nodes = append(p.nodes, n)
		return
	}
	p.unit.Append(n)
}

func (p *refParser) parse(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := refStripComment(raw)
		for _, stmt := range refSplitTop(line, ';') {
			if err := p.statement(strings.TrimSpace(stmt)); err != nil {
				return err
			}
		}
	}
	return nil
}

// statement handles one label/directive/instruction statement.
func (p *refParser) statement(s string) error {
	for s != "" {
		// Leading labels: "name:" possibly followed by more text.
		name, rest, ok := refCutLabel(s)
		if !ok {
			break
		}
		p.append(ir.LabelNode(name))
		s = strings.TrimSpace(rest)
	}
	if s == "" {
		return nil
	}
	if s[0] == '.' {
		// No x86 mnemonic starts with '.', so this is a directive.
		return p.directive(s)
	}
	if p.intel {
		return p.intelInstruction(s)
	}
	return p.instruction(s)
}

// refCutLabel splits a leading "ident:" off s. Identifiers follow gas
// rules: letters, digits, '_', '.', '$'; the first rune must not be a
// digit (numeric local labels are not supported).
func refCutLabel(s string) (name, rest string, ok bool) {
	i := 0
	for i < len(s) && refIsIdentChar(s[i]) {
		i++
	}
	if i == 0 || i >= len(s) || s[i] != ':' {
		return "", "", false
	}
	if s[0] >= '0' && s[0] <= '9' {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

func refIsIdentChar(c byte) bool {
	return c == '_' || c == '.' || c == '$' || c == '@' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *refParser) directive(s string) error {
	name := s
	var rest string
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		name, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	var args []string
	if rest != "" {
		for _, a := range refSplitTop(rest, ',') {
			args = append(args, strings.TrimSpace(a))
		}
	}
	// Syntax-mode switches are consumed by the parser itself; the IR
	// always holds (and emits) AT&T.
	switch name {
	case ".intel_syntax":
		p.intel = true
		return nil
	case ".att_syntax":
		p.intel = false
		return nil
	}
	p.append(ir.DirectiveNode(name, args...))
	return nil
}

func (p *refParser) instruction(s string) error {
	mnemonic := s
	var rest string
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mnemonic, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	mnemonic = strings.ToLower(mnemonic)

	lock := false
	if mnemonic == "lock" {
		lock = true
		s = rest
		if i := strings.IndexAny(s, " \t"); i >= 0 {
			mnemonic, rest = strings.ToLower(s[:i]), strings.TrimSpace(s[i+1:])
		} else {
			mnemonic, rest = strings.ToLower(s), ""
		}
		if mnemonic == "" {
			return p.errf("lock prefix without instruction")
		}
	}

	m, ok := x86.ParseMnemonic(mnemonic)
	if !ok {
		return p.errf("unknown mnemonic %q", mnemonic)
	}

	var args []x86.Operand
	branch := m.Op.IsBranch()
	if rest != "" {
		for _, a := range refSplitTop(rest, ',') {
			op, err := p.parseOperand(strings.TrimSpace(a), branch)
			if err != nil {
				return err
			}
			args = append(args, op)
		}
	}

	// AT&T "movq" with an xmm operand is the SSE movq, not the GPR
	// move; likewise a suffix-less "mov" between xmm registers.
	if (m.Op == x86.OpMOV || m.Op == x86.OpMOVQX) && refHasXMM(args) {
		m = x86.Mnem{Op: x86.OpMOVQX}
	}

	in := x86.NewInst(m, args...)
	in.Lock = lock
	p.append(ir.InstNode(in))
	return nil
}

func refHasXMM(args []x86.Operand) bool {
	for _, a := range args {
		if a.Kind == x86.KindReg && a.Reg.IsXMM() {
			return true
		}
	}
	return false
}

// parseOperand parses one AT&T operand. branch selects the bare-symbol
// interpretation: branch targets become labels, data references become
// absolute memory operands.
func (p *refParser) parseOperand(s string, branch bool) (x86.Operand, error) {
	if s == "" {
		return x86.Operand{}, p.errf("empty operand")
	}
	if s[0] == '*' {
		op, err := p.parseOperand(strings.TrimSpace(s[1:]), false)
		if err != nil {
			return op, err
		}
		op.Star = true
		return op, nil
	}
	switch s[0] {
	case '$':
		body := s[1:]
		if v, err := refParseInt(body); err == nil {
			return x86.Imm(v), nil
		}
		// Symbolic immediate ($sym or $sym+off); stored with the
		// symbol in Sym so emission reproduces it.
		sym, off, err := refParseSymExpr(body)
		if err != nil {
			return x86.Operand{}, p.errf("bad immediate %q", s)
		}
		return x86.Operand{Kind: x86.KindImm, Sym: sym, Imm: off}, nil
	case '%':
		r, ok := x86.RegByName(strings.ToLower(s[1:]))
		if !ok {
			return x86.Operand{}, p.errf("unknown register %q", s)
		}
		return x86.RegOp(r), nil
	}
	if i := strings.IndexByte(s, '('); i >= 0 {
		return p.parseMem(s[:i], s[i:])
	}
	// Bare expression: number, symbol, or symbol±offset.
	if v, err := refParseInt(s); err == nil {
		if branch {
			return x86.Operand{}, p.errf("numeric branch target %q not supported", s)
		}
		return x86.MemOp(x86.Mem{Disp: v}), nil
	}
	sym, off, err := refParseSymExpr(s)
	if err != nil {
		return x86.Operand{}, p.errf("bad operand %q", s)
	}
	if branch {
		return x86.Operand{Kind: x86.KindLabel, Sym: sym, Off: off}, nil
	}
	return x86.MemOp(x86.Mem{Sym: sym, Disp: off}), nil
}

// parseMem parses disp(base,index,scale). disp may be empty, numeric,
// or symbolic (sym, sym+4, sym-4).
func (p *refParser) parseMem(disp, paren string) (x86.Operand, error) {
	var m x86.Mem
	disp = strings.TrimSpace(disp)
	if disp != "" {
		if v, err := refParseInt(disp); err == nil {
			m.Disp = v
		} else {
			sym, off, err := refParseSymExpr(disp)
			if err != nil {
				return x86.Operand{}, p.errf("bad displacement %q", disp)
			}
			m.Sym, m.Disp = sym, off
		}
	}
	if !strings.HasPrefix(paren, "(") || !strings.HasSuffix(paren, ")") {
		return x86.Operand{}, p.errf("bad memory operand %q", disp+paren)
	}
	inner := paren[1 : len(paren)-1]
	parts := strings.Split(inner, ",")
	if len(parts) > 3 {
		return x86.Operand{}, p.errf("too many memory components in %q", paren)
	}
	getReg := func(s string) (x86.Reg, error) {
		s = strings.TrimSpace(s)
		if s == "" {
			return x86.RegNone, nil
		}
		if !strings.HasPrefix(s, "%") {
			return x86.RegNone, p.errf("expected register, got %q", s)
		}
		r, ok := x86.RegByName(strings.ToLower(s[1:]))
		if !ok {
			return x86.RegNone, p.errf("unknown register %q", s)
		}
		return r, nil
	}
	var err error
	if m.Base, err = getReg(parts[0]); err != nil {
		return x86.Operand{}, err
	}
	if len(parts) >= 2 {
		if m.Index, err = getReg(parts[1]); err != nil {
			return x86.Operand{}, err
		}
	}
	m.Scale = 1
	if len(parts) == 3 {
		sc := strings.TrimSpace(parts[2])
		if sc != "" {
			v, err := strconv.Atoi(sc)
			if err != nil || (v != 1 && v != 2 && v != 4 && v != 8) {
				return x86.Operand{}, p.errf("bad scale %q", sc)
			}
			m.Scale = uint8(v)
		}
	}
	// Fixed: a reference naming no register prints as a bare
	// displacement, which reads back as a different operand.
	if m.Base == x86.RegNone && m.Index == x86.RegNone {
		return x86.Operand{}, p.errf("no base or index register in %q", disp+paren)
	}
	return x86.MemOp(m), nil
}

// refParseInt parses decimal, hex (0x), octal (0o/leading 0) and binary
// (0b) integer literals with an optional sign, into an int64 with
// wraparound semantics for large unsigned values (gas accepts
// 0xffffffffffffffff).
func refParseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	if s == "" {
		return 0, fmt.Errorf("empty integer")
	}
	u, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, err
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return v, nil
}

// refParseSymExpr parses sym, sym+off or sym-off.
func refParseSymExpr(s string) (sym string, off int64, err error) {
	i := 0
	for i < len(s) && refIsIdentChar(s[i]) {
		i++
	}
	if i == 0 || (s[0] >= '0' && s[0] <= '9') {
		return "", 0, fmt.Errorf("bad symbol in %q", s)
	}
	sym = s[:i]
	rest := strings.TrimSpace(s[i:])
	if rest == "" {
		return sym, 0, nil
	}
	if rest[0] != '+' && rest[0] != '-' {
		return "", 0, fmt.Errorf("bad symbol expression %q", s)
	}
	off, err = refParseInt(rest)
	if err != nil {
		return "", 0, err
	}
	return sym, off, nil
}

// refStripComment removes a '#' comment, respecting string literals.
// Fixed: inside a string literal a backslash escapes exactly the next
// byte (the earlier rule treated any quote after a backslash as
// escaped, so "a\\" never closed), and a quote outside a string always
// opens one, as in refSplitTop.
func refStripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '#':
			return s[:i]
		}
	}
	return s
}

// refSplitTop splits s on sep occurring at paren depth zero and outside
// string literals.
func refSplitTop(s string, sep byte) []string {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			// Fixed as in refStripComment.
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

// intelInstruction parses one Intel-syntax instruction statement.
func (p *refParser) intelInstruction(s string) error {
	mnemonic := s
	var rest string
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mnemonic, rest = strings.ToLower(s[:i]), strings.TrimSpace(s[i+1:])
	} else {
		mnemonic = strings.ToLower(mnemonic)
	}

	m, srcWidth, ok := refIntelMnemonic(mnemonic)
	if !ok {
		return p.errf("unknown mnemonic %q", mnemonic)
	}

	var args []x86.Operand
	var memWidth x86.Width
	branch := m.Op.IsBranch()
	if rest != "" {
		for _, a := range refSplitTop(rest, ',') {
			op, w, err := p.parseIntelOperand(strings.TrimSpace(a), branch)
			if err != nil {
				return err
			}
			if w != x86.W0 {
				memWidth = w
			}
			args = append(args, op)
		}
	}

	// Intel order is destination-first; the IR stores AT&T order.
	for i, j := 0, len(args)-1; i < j; i, j = i+1, j-1 {
		args[i], args[j] = args[j], args[i]
	}

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
	if (m.Op == x86.OpMOV || m.Op == x86.OpMOVQX) && refHasXMM(args) {
		m = x86.Mnem{Op: x86.OpMOVQX}
	}

	in := x86.NewInst(m, args...)
	p.append(ir.InstNode(in))
	return nil
}

// refIntelMnemonic decodes an Intel mnemonic: no width suffixes; movzx
// and movsx carry the width in their operands.
func refIntelMnemonic(m string) (x86.Mnem, x86.Width, bool) {
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
func (p *refParser) parseIntelOperand(s string, branch bool) (x86.Operand, x86.Width, error) {
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
	if v, err := refParseInt(s); err == nil {
		if branch {
			return x86.Operand{}, 0, p.errf("numeric branch target %q not supported", s)
		}
		return x86.Imm(v), 0, nil
	}
	sym, off, err := refParseSymExpr(s)
	if err != nil {
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
func (p *refParser) parseIntelMem(s string) (x86.Mem, error) {
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
			if _, err := refParseInt(a); err == nil {
				regStr, scaleStr = b, a
			}
			r, ok := x86.RegByName(strings.ToLower(strings.TrimPrefix(regStr, "%")))
			if !ok {
				return p.errf("bad index register %q", regStr)
			}
			sc, err := refParseInt(scaleStr)
			if err != nil || (sc != 1 && sc != 2 && sc != 4 && sc != 8) {
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
		if v, err := refParseInt(t); err == nil {
			m.Disp += sign * v
			return nil
		}
		sym, off, err := refParseSymExpr(t)
		if err != nil {
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
