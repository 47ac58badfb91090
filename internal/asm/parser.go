// Package asm parses textual x86-64 assembly in AT&T syntax into the
// MAO IR. It plays the role gas' parser plays for the original MAO:
// every instruction becomes a single concrete struct (x86.Inst) and
// every directive and label becomes an IR node, so that the optimizer
// can reconstruct a byte-equivalent file after transformation.
//
// The parser accepts the dialect GCC and Clang emit: labels (including
// local .L labels), the common assembler directives, '#' comments,
// multiple statements per line separated by ';', and the full AT&T
// operand grammar (immediates, registers, memory references with
// base/index/scale and symbolic displacements, and '*' indirect branch
// targets).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"mao/internal/ir"
	"mao/internal/x86"
)

// ParseError describes a parse failure with its source position.
type ParseError struct {
	File string
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// ParseString parses assembly source into a fresh, analyzed unit.
func ParseString(name, src string) (*ir.Unit, error) {
	p := &parser{file: name, unit: ir.NewUnit(name)}
	if err := p.parse(src); err != nil {
		return nil, err
	}
	if err := p.unit.Analyze(); err != nil {
		return nil, err
	}
	return p.unit, nil
}

// ParseNodes parses assembly source into nodes linked into no list:
// no unit is built and no structure analysis runs, so Section is
// unset and Line is the node's line in src. It serves callers that
// splice the nodes into a unit of their own and analyze that unit.
func ParseNodes(name, src string) ([]*ir.Node, error) {
	p := &parser{file: name}
	if err := p.parse(src); err != nil {
		return nil, err
	}
	return p.nodes, nil
}

type parser struct {
	file  string
	unit  *ir.Unit   // the unit parsed nodes join; nil for ParseNodes
	nodes []*ir.Node // the parsed nodes when unit is nil
	line  int
	intel bool // inside .intel_syntax mode
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{File: p.file, Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// append adds a node to the unit (or the node slice) stamped with the
// current source line, so diagnostics can report file:line positions.
func (p *parser) append(n *ir.Node) {
	n.Line = p.line
	if p.unit == nil {
		p.nodes = append(p.nodes, n)
		return
	}
	p.unit.Append(n)
}

func (p *parser) parse(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := stripComment(raw)
		for _, stmt := range splitTop(line, ';') {
			if err := p.statement(strings.TrimSpace(stmt)); err != nil {
				return err
			}
		}
	}
	return nil
}

// statement handles one label/directive/instruction statement.
func (p *parser) statement(s string) error {
	for s != "" {
		// Leading labels: "name:" possibly followed by more text.
		name, rest, ok := cutLabel(s)
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

// cutLabel splits a leading "ident:" off s. Identifiers follow gas
// rules: letters, digits, '_', '.', '$'; the first rune must not be a
// digit (numeric local labels are not supported).
func cutLabel(s string) (name, rest string, ok bool) {
	i := 0
	for i < len(s) && isIdentChar(s[i]) {
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

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' || c == '$' || c == '@' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *parser) directive(s string) error {
	name := s
	var rest string
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		name, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	var args []string
	if rest != "" {
		for _, a := range splitTop(rest, ',') {
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

func (p *parser) instruction(s string) error {
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
		for _, a := range splitTop(rest, ',') {
			op, err := p.parseOperand(strings.TrimSpace(a), branch)
			if err != nil {
				return err
			}
			args = append(args, op)
		}
	}

	// AT&T "movq" with an xmm operand is the SSE movq, not the GPR
	// move; likewise a suffix-less "mov" between xmm registers.
	if (m.Op == x86.OpMOV || m.Op == x86.OpMOVQX) && hasXMM(args) {
		m = x86.Mnem{Op: x86.OpMOVQX}
	}

	in := x86.NewInst(m, args...)
	in.Lock = lock
	p.append(ir.InstNode(in))
	return nil
}

func hasXMM(args []x86.Operand) bool {
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
func (p *parser) parseOperand(s string, branch bool) (x86.Operand, error) {
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
		if v, err := parseInt(body); err == nil {
			return x86.Imm(v), nil
		}
		// Symbolic immediate ($sym or $sym+off); stored with the
		// symbol in Sym so emission reproduces it.
		sym, off, err := parseSymExpr(body)
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
	if v, err := parseInt(s); err == nil {
		if branch {
			return x86.Operand{}, p.errf("numeric branch target %q not supported", s)
		}
		return x86.MemOp(x86.Mem{Disp: v}), nil
	}
	sym, off, err := parseSymExpr(s)
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
func (p *parser) parseMem(disp, paren string) (x86.Operand, error) {
	var m x86.Mem
	disp = strings.TrimSpace(disp)
	if disp != "" {
		if v, err := parseInt(disp); err == nil {
			m.Disp = v
		} else {
			sym, off, err := parseSymExpr(disp)
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
	return x86.MemOp(m), nil
}

// parseInt parses decimal, hex (0x), octal (0o/leading 0) and binary
// (0b) integer literals with an optional sign, into an int64 with
// wraparound semantics for large unsigned values (gas accepts
// 0xffffffffffffffff).
func parseInt(s string) (int64, error) {
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

// parseSymExpr parses sym, sym+off or sym-off.
func parseSymExpr(s string) (sym string, off int64, err error) {
	i := 0
	for i < len(s) && isIdentChar(s[i]) {
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
	off, err = parseInt(rest)
	if err != nil {
		return "", 0, err
	}
	return sym, off, nil
}

// stripComment removes a '#' comment, respecting string literals.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				inStr = !inStr
			}
		case '#':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

// splitTop splits s on sep occurring at paren depth zero and outside
// string literals.
func splitTop(s string, sep byte) []string {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '"' && s[i-1] != '\\' {
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
