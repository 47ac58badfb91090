package ir

import (
	"fmt"
	"io"
	"strings"

	"mao/internal/x86"
)

// Unit is the IR for one assembly file: the flat node list plus the
// recovered section and function structure.
type Unit struct {
	FileName string
	List     List

	labels    map[string]*Node
	functions []*Function
	sections  []string
}

// NewUnit returns an empty unit.
func NewUnit(fileName string) *Unit {
	return &Unit{FileName: fileName}
}

// Append adds a node at the end of the unit list.
func (u *Unit) Append(n *Node) *Node { return u.List.Append(n) }

// Analyze (re)computes per-node section attribution, the label index
// and the function list. It must be called after parsing and after any
// structural change that adds or removes labels, section switches or
// function markers. Pure instruction edits do not require re-analysis.
func (u *Unit) Analyze() error {
	// Analyze rewrites node section attribution and the label map in
	// place — inputs cached relaxation state depends on — so it counts
	// as a mutation for ir.List.Version consumers.
	u.List.BumpVersion()
	u.labels = make(map[string]*Node)
	u.functions = nil
	u.sections = nil

	section := ".text" // gas default
	seen := map[string]bool{}
	typeFunc := map[string]bool{} // symbols declared .type sym,@function

	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == NodeDirective {
			switch n.Dir.Name {
			case ".text":
				section = ".text"
			case ".data":
				section = ".data"
			case ".bss":
				section = ".bss"
			case ".section":
				if len(n.Dir.Args) > 0 {
					section = strings.TrimSpace(n.Dir.Args[0])
				}
			case ".type":
				if len(n.Dir.Args) >= 2 &&
					strings.Contains(n.Dir.Args[1], "function") {
					typeFunc[strings.TrimSpace(n.Dir.Args[0])] = true
				}
			}
		}
		n.Section = section
		if !seen[section] {
			seen[section] = true
			u.sections = append(u.sections, section)
		}
		if n.Kind == NodeLabel {
			if prev, dup := u.labels[n.Label]; dup && prev != n {
				return fmt.Errorf("ir: duplicate label %q", n.Label)
			}
			u.labels[n.Label] = n
		}
	}

	// Second walk: functions start at a label that was declared
	// .type sym,@function and end at the matching .size directive (or
	// at the start of the next function / end of unit).
	var cur *Function
	for n := u.List.Front(); n != nil; n = n.Next() {
		switch n.Kind {
		case NodeLabel:
			if typeFunc[n.Label] {
				if cur != nil {
					cur.end = n.Prev()
				}
				cur = &Function{Name: n.Label, unit: u, start: n, SectionName: n.Section}
				u.functions = append(u.functions, cur)
			}
		case NodeDirective:
			if cur != nil && n.Dir.Name == ".size" && len(n.Dir.Args) >= 1 &&
				strings.TrimSpace(n.Dir.Args[0]) == cur.Name {
				cur.end = n
				cur = nil
			}
		}
	}
	if cur != nil {
		cur.end = u.List.Back()
	}
	return nil
}

// Clone returns a deep, structurally independent copy of the unit:
// every node is cloned (see Node.Clone) and the copy is re-analyzed,
// so it carries its own label index and function structure. It is the
// cheap way to snapshot a unit — no rendering, no re-parsing.
func (u *Unit) Clone() (*Unit, error) {
	// Slab-allocate the copies: clones are taken per pass invocation by
	// the certifier, so the node, instruction and operand storage comes
	// from three bulk allocations instead of a few per node.
	var nNodes, nInsts, nArgs int
	for n := u.List.Front(); n != nil; n = n.Next() {
		nNodes++
		if n.Inst != nil {
			nInsts++
			nArgs += len(n.Inst.Args)
		}
	}
	nodes := make([]Node, nNodes)
	insts := make([]x86.Inst, nInsts)
	args := make([]x86.Operand, nArgs)

	nu := NewUnit(u.FileName)

	// An analyzed source (the certifier's case — it clones between
	// passes) lets the copy inherit the analysis instead of re-running
	// it: labels, sections and function spans are remapped during the
	// same walk. Node sections were stamped by the source's Analyze and
	// are copied with the node.
	analyzed := u.labels != nil
	var fns []*Function
	var nf *Function
	fi := 0
	if analyzed {
		nu.labels = make(map[string]*Node, len(u.labels))
		nu.sections = append([]string(nil), u.sections...)
		fns = u.functions
	}

	i, j, k := 0, 0, 0
	for n := u.List.Front(); n != nil; n = n.Next() {
		c := &nodes[i]
		i++
		c.Kind, c.Label, c.Section, c.Line = n.Kind, n.Label, n.Section, n.Line
		if n.Inst != nil {
			ci := &insts[j]
			j++
			*ci = *n.Inst
			if na := len(n.Inst.Args); na > 0 {
				ci.Args = args[k : k+na : k+na]
				copy(ci.Args, n.Inst.Args)
				k += na
			}
			c.Inst = ci
		}
		if n.Dir != nil {
			d := Directive{Name: n.Dir.Name, Args: append([]string(nil), n.Dir.Args...)}
			c.Dir = &d
		}
		if n.Prov != nil {
			p := *n.Prov
			c.Prov = &p
		}
		nu.Append(c)
		if analyzed {
			if n.Kind == NodeLabel {
				nu.labels[n.Label] = c
			}
			if fi < len(fns) && n == fns[fi].start {
				nf = &Function{Name: fns[fi].Name, SectionName: fns[fi].SectionName,
					unit: nu, start: c, Unresolved: fns[fi].Unresolved}
				nu.functions = append(nu.functions, nf)
				if fns[fi].end == nil {
					fi++
					nf = nil
				}
			}
			if nf != nil && fi < len(fns) && n == fns[fi].end {
				nf.end = c
				fi++
				nf = nil
			}
		}
	}
	if !analyzed {
		if err := nu.Analyze(); err != nil {
			return nil, err
		}
	}
	return nu, nil
}

// FindLabel returns the node defining the given label, or nil.
func (u *Unit) FindLabel(name string) *Node { return u.labels[name] }

// Functions returns the functions recognized by the last Analyze, in
// file order.
func (u *Unit) Functions() []*Function { return u.functions }

// Function returns the function with the given name, or nil.
func (u *Unit) Function(name string) *Function {
	for _, f := range u.functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Sections returns the section names in first-appearance order.
func (u *Unit) Sections() []string { return u.sections }

// WriteTo emits the unit as textual assembly. It implements
// io.WriterTo so that emission composes with any output sink. Every
// line is rendered into one reused buffer and written with its newline
// in a single Write.
func (u *Unit) WriteTo(w io.Writer) (int64, error) {
	var total int64
	line := make([]byte, 0, 128)
	for n := u.List.Front(); n != nil; n = n.Next() {
		line = append(n.AppendTo(line[:0]), '\n')
		k, err := w.Write(line)
		total += int64(k)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the whole unit as assembly text.
func (u *Unit) String() string {
	var b strings.Builder
	u.WriteTo(&b) // strings.Builder writes cannot fail
	return b.String()
}

// Function is a recognized function: the span of nodes from its
// defining label to its .size directive. A function body may be
// interrupted by fragments in other sections (jump tables and similar
// compiler-emitted data); the instruction iterators skip those
// transparently, as the linker will reassemble a contiguous body.
type Function struct {
	Name        string
	SectionName string

	unit  *Unit
	start *Node // the function's defining label
	end   *Node // last node of the function (inclusive); nil if empty

	// Unresolved is set by the CFG builder when an indirect branch in
	// the function could not be pattern-matched; optimization passes
	// consult it to decide whether to proceed.
	Unresolved bool
}

// Unit returns the unit the function belongs to.
func (f *Function) Unit() *Unit { return f.unit }

// EntryLabel returns the node of the function's defining label.
func (f *Function) EntryLabel() *Node { return f.start }

// End returns the last node of the function span (usually its .size
// directive).
func (f *Function) End() *Node { return f.end }

// Entries returns every node in the function span, including nodes in
// interleaved non-code fragments.
func (f *Function) Entries() []*Node {
	var out []*Node
	for n := f.start; n != nil; n = n.Next() {
		out = append(out, n)
		if n == f.end {
			break
		}
	}
	return out
}

// CodeEntries returns the function's nodes restricted to its code
// section, transparently skipping interleaved data fragments.
func (f *Function) CodeEntries() []*Node {
	count := 0
	for n := f.start; n != nil; n = n.Next() {
		if n.Section == f.SectionName {
			count++
		}
		if n == f.end {
			break
		}
	}
	out := make([]*Node, 0, count)
	for n := f.start; n != nil; n = n.Next() {
		if n.Section == f.SectionName {
			out = append(out, n)
		}
		if n == f.end {
			break
		}
	}
	return out
}

// Instructions returns the function's instruction nodes in order,
// skipping labels, directives and interleaved data fragments.
func (f *Function) Instructions() []*Node {
	var out []*Node
	for _, n := range f.CodeEntries() {
		if n.Kind == NodeInst {
			out = append(out, n)
		}
	}
	return out
}

// Contains reports whether node n lies within the function span
// (including interleaved fragments).
func (f *Function) Contains(n *Node) bool {
	for m := f.start; m != nil; m = m.Next() {
		if m == n {
			return true
		}
		if m == f.end {
			break
		}
	}
	return false
}
