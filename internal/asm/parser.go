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
//
// A parse walks the source once and allocates per unit, not per line,
// statement or operand: statements, operands and directive arguments
// are cut from the source in place, and nodes, instructions, operands
// and directive records come from per-parse slabs sized from the
// source's line count (see slab).
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
	p := parser{file: name, unit: ir.NewUnit(name)}
	p.size(src)
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
// The returned slice's capacity is its length.
func ParseNodes(name, src string) ([]*ir.Node, error) {
	p := parser{file: name}
	p.out = make([]*ir.Node, 0, p.size(src))
	if err := p.parse(src); err != nil {
		return nil, err
	}
	if len(p.out) == cap(p.out) {
		return p.out, nil
	}
	out := make([]*ir.Node, len(p.out))
	copy(out, p.out)
	return out, nil
}

type parser struct {
	file  string
	unit  *ir.Unit   // the unit parsed nodes join; nil for ParseNodes
	out   []*ir.Node // the parsed nodes when unit is nil
	line  int
	intel bool // inside .intel_syntax mode

	nodes slab[ir.Node]
	insts slab[x86.Inst]
	ops   slab[x86.Operand]
	dirs  slab[ir.Directive]
	strs  slab[string] // directive arguments

	// Scratch for the statement in hand; slab windows are cut to the
	// final count from these. argBuf grows once to the widest
	// directive and is reused.
	opBuf  [4]x86.Operand
	argBuf []string
}

// slab hands out values of T from chunks allocated in bulk, so a parse
// makes a few allocations per kind of record instead of one per
// record. A chunk is never reallocated: what it handed out keeps its
// address. The first chunk is sized from the source (parser.size) and
// later ones are small. A chunk stays reachable while any value cut
// from it is, as Unit.Clone's slabs do.
type slab[T any] struct {
	free []T // the unused tail of the current chunk
	next int // size of the next chunk
	step int // size of every chunk after that
}

func (s *slab[T]) init(first, step int) {
	s.next, s.step = max(first, 1), max(step, 1)
}

// grow starts a chunk with room for at least n values.
func (s *slab[T]) grow(n int) {
	s.free = make([]T, max(s.next, n))
	s.next = s.step
}

// one returns a zeroed value.
func (s *slab[T]) one() *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// take copies src into the slab and returns the copy, nil for an
// empty src. The copy's capacity is its length, so appending to it
// reallocates instead of writing into its neighbour.
func (s *slab[T]) take(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.grow(n)
	}
	w := s.free[:n:n]
	s.free = s.free[n:]
	copy(w, src)
	return w
}

// size sizes the slabs' first chunks from src's line count and returns
// that count. The first chunk of each kind holds the fewest records of
// that kind per line the corpus templates carry, in source or printed
// form (the text a memo entry holds), at scales 0.1–0.4: one node,
// 0.63 instructions, 0.94 operands, 0.067 directives and 0.11
// directive arguments (the means are 1.0, 0.81, 1.41, 0.10 and 0.16).
// The rest comes in chunks of an eighth or a sixteenth of the line
// count, so a parse over-allocates by at most one small chunk per kind
// and makes a handful of allocations per kind.
func (p *parser) size(src string) int {
	lines := strings.Count(src, "\n")
	if !strings.HasSuffix(src, "\n") {
		lines++
	}
	p.nodes.init(lines, lines/16+4)
	p.insts.init(lines*5/8, lines/8+4)
	p.ops.init(lines*15/16, lines/8+4)
	p.dirs.init(lines/16+1, lines/16+4)
	p.strs.init(lines/10+1, lines/16+4)
	return lines
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{File: p.file, Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// node returns a fresh node of the given kind from the slab, stamped
// with the current source line (so diagnostics can report file:line
// positions) and added to the unit or the node slice.
func (p *parser) node(kind ir.NodeKind) *ir.Node {
	n := p.nodes.one()
	n.Kind = kind
	n.Line = p.line
	if p.unit == nil {
		p.out = append(p.out, n)
	} else {
		p.unit.Append(n)
	}
	return n
}

// inst adds an instruction node built from m and args (copied out of
// the caller's scratch), inferring the width as x86.NewInst does.
func (p *parser) inst(m x86.Mnem, args []x86.Operand, lock bool) {
	in := p.insts.one()
	*in = x86.Inst{Op: m.Op, Cond: m.Cond, Width: m.Width, SrcWidth: m.SrcWidth,
		Args: p.ops.take(args), Lock: lock}
	in.InferWidth()
	p.node(ir.NodeInst).Inst = in
}

func (p *parser) parse(src string) error {
	for p.line = 1; ; p.line++ {
		line, rest, more := strings.Cut(src, "\n")
		for {
			stmt, tail, sep := cutTop(line, ';', true)
			if err := p.statement(strings.TrimSpace(stmt)); err != nil {
				return err
			}
			if !sep {
				break
			}
			line = tail
		}
		if !more {
			return nil
		}
		src = rest
	}
}

// statement handles one label/directive/instruction statement.
func (p *parser) statement(s string) error {
	for s != "" {
		// Leading labels: "name:" possibly followed by more text.
		name, rest, ok := cutLabel(s)
		if !ok {
			break
		}
		p.node(ir.NodeLabel).Label = name
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

// cutWord splits s at its first space or tab into a word and the
// trimmed remainder.
func cutWord(s string) (word, rest string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], strings.TrimSpace(s[i+1:])
		}
	}
	return s, ""
}

func (p *parser) directive(s string) error {
	name, rest := cutWord(s)
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
	args := p.argBuf[:0]
	for more := rest != ""; more; {
		var a string
		a, rest, more = cutTop(rest, ',', false)
		args = append(args, strings.TrimSpace(a))
	}
	p.argBuf = args
	d := p.dirs.one()
	d.Name, d.Args = name, p.strs.take(args)
	p.node(ir.NodeDirective).Dir = d
	return nil
}

func (p *parser) instruction(s string) error {
	mnemonic, rest := cutWord(s)
	lock := false
	if strings.EqualFold(mnemonic, "lock") {
		lock = true
		if mnemonic, rest = cutWord(rest); mnemonic == "" {
			return p.errf("lock prefix without instruction")
		}
	}

	// ParseMnemonic lowercases; the source's case only matters again
	// for the error.
	m, ok := x86.ParseMnemonic(mnemonic)
	if !ok {
		return p.errf("unknown mnemonic %q", strings.ToLower(mnemonic))
	}

	args := p.opBuf[:0]
	branch := m.Op.IsBranch()
	for more := rest != ""; more; {
		var a string
		a, rest, more = cutTop(rest, ',', false)
		op, err := p.parseOperand(strings.TrimSpace(a), branch)
		if err != nil {
			return err
		}
		args = append(args, op)
	}

	// AT&T "movq" with an xmm operand is the SSE movq, not the GPR
	// move; likewise a suffix-less "mov" between xmm registers.
	if (m.Op == x86.OpMOV || m.Op == x86.OpMOVQX) && hasXMM(args) {
		m = x86.Mnem{Op: x86.OpMOVQX}
	}
	p.inst(m, args, lock)
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
		if v, ok := parseInt(body); ok {
			return x86.Imm(v), nil
		}
		// Symbolic immediate ($sym or $sym+off); stored with the
		// symbol in Sym so emission reproduces it.
		sym, off, ok := parseSymExpr(body)
		if !ok {
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
	if v, ok := parseInt(s); ok {
		if branch {
			return x86.Operand{}, p.errf("numeric branch target %q not supported", s)
		}
		return x86.MemOp(x86.Mem{Disp: v}), nil
	}
	sym, off, ok := parseSymExpr(s)
	if !ok {
		return x86.Operand{}, p.errf("bad operand %q", s)
	}
	if branch {
		return x86.Operand{Kind: x86.KindLabel, Sym: sym, Off: off}, nil
	}
	return x86.MemOp(x86.Mem{Sym: sym, Disp: off}), nil
}

// parseMem parses disp(base,index,scale). disp may be empty, numeric,
// or symbolic (sym, sym+4, sym-4); the parentheses must name a base or
// an index register, since a reference with neither prints as a bare
// displacement, which reads back as a different operand.
func (p *parser) parseMem(disp, paren string) (x86.Operand, error) {
	var m x86.Mem
	disp = strings.TrimSpace(disp)
	if disp != "" {
		if v, ok := parseInt(disp); ok {
			m.Disp = v
		} else {
			sym, off, ok := parseSymExpr(disp)
			if !ok {
				return x86.Operand{}, p.errf("bad displacement %q", disp)
			}
			m.Sym, m.Disp = sym, off
		}
	}
	if !strings.HasPrefix(paren, "(") || !strings.HasSuffix(paren, ")") {
		return x86.Operand{}, p.errf("bad memory operand %q", disp+paren)
	}
	inner := paren[1 : len(paren)-1]
	if strings.Count(inner, ",") > 2 {
		return x86.Operand{}, p.errf("too many memory components in %q", paren)
	}
	base, rest, hasIndex := strings.Cut(inner, ",")
	var err error
	if m.Base, err = p.memReg(base); err != nil {
		return x86.Operand{}, err
	}
	index, scale, hasScale := strings.Cut(rest, ",")
	if hasIndex {
		if m.Index, err = p.memReg(index); err != nil {
			return x86.Operand{}, err
		}
	}
	m.Scale = 1
	if hasScale {
		if sc := strings.TrimSpace(scale); sc != "" {
			v, err := strconv.Atoi(sc)
			if err != nil || (v != 1 && v != 2 && v != 4 && v != 8) {
				return x86.Operand{}, p.errf("bad scale %q", sc)
			}
			m.Scale = uint8(v)
		}
	}
	if m.Base == x86.RegNone && m.Index == x86.RegNone {
		return x86.Operand{}, p.errf("no base or index register in %q", disp+paren)
	}
	return x86.MemOp(m), nil
}

// memReg parses one register component of a memory reference; an
// empty component is no register.
func (p *parser) memReg(s string) (x86.Reg, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return x86.RegNone, nil
	}
	if s[0] != '%' {
		return x86.RegNone, p.errf("expected register, got %q", s)
	}
	r, ok := x86.RegByName(strings.ToLower(s[1:]))
	if !ok {
		return x86.RegNone, p.errf("unknown register %q", s)
	}
	return r, nil
}

// parseInt parses decimal, hex (0x), octal (0o/leading 0) and binary
// (0b) integer literals with an optional sign, into an int64 with
// wraparound semantics for large unsigned values (gas accepts
// 0xffffffffffffffff). The first byte decides: only a sign or a digit
// can start a number, so a symbol is turned away before strconv runs
// and probing one builds no error value.
func parseInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	neg := false
	if s != "" && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if s == "" || s[0] < '0' || s[0] > '9' {
		return 0, false
	}
	u, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return v, true
}

// parseSymExpr parses sym, sym+off or sym-off.
func parseSymExpr(s string) (sym string, off int64, ok bool) {
	i := 0
	for i < len(s) && isIdentChar(s[i]) {
		i++
	}
	if i == 0 || (s[0] >= '0' && s[0] <= '9') {
		return "", 0, false
	}
	sym = s[:i]
	rest := strings.TrimSpace(s[i:])
	if rest == "" {
		return sym, 0, true
	}
	if rest[0] != '+' && rest[0] != '-' {
		return "", 0, false
	}
	if off, ok = parseInt(rest); !ok {
		return "", 0, false
	}
	return sym, off, true
}

// cutTop cuts s at the first sep outside parentheses and string
// literals, reporting whether it found one. With comment set (cutting
// a line into statements), a '#' outside a string starts a comment:
// the text before it is the last piece. Lists inside a statement are
// cut without it, since a quote in the statement's first word can
// open a string that covers a '#'. Inside a string literal a
// backslash escapes exactly the next byte, so "a\\" ends at its last
// quote and "a\"" does not.
func cutTop(s string, sep byte, comment bool) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		if !cutStop[s[i]] {
			continue
		}
		switch c := s[i]; {
		case c == '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case c == '#' && comment:
			return s[:i], "", false
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// cutStop marks the bytes cutTop acts on; it skips every other byte
// with one load.
var cutStop = [256]bool{'"': true, '#': true, '(': true, ')': true, ';': true, ',': true}
