package exec

import (
	"fmt"
	"strconv"
	"strings"

	"mao/internal/ir"
	"mao/internal/relax"
	"mao/internal/x86"
)

// Event is one dynamically executed instruction, in the form the
// timing simulator consumes.
type Event struct {
	Node *ir.Node
	Addr int64 // effective address (section base + relaxed offset)
	Len  int

	IsBranch     bool
	IsCondBranch bool
	Taken        bool
	Target       int64 // effective target address when taken

	HasLoad   bool
	LoadAddr  uint64
	HasStore  bool
	StoreAddr uint64
	AccessLen int

	// NonTemporal marks prefetchnta hint events; the cache model
	// restricts the named line to a single way.
	NonTemporal bool
}

// Sample is a register-file snapshot at one executed instruction, the
// input the SIMADDR pass multiplies (paper III-E.m): hardware PMU
// sampling delivers exactly this — an instruction address plus the
// register contents at that instant.
type Sample struct {
	Index int64 // dynamic instruction index
	Node  *ir.Node
	GPR   [16]uint64
}

// Config configures one execution.
type Config struct {
	Unit   *ir.Unit
	Layout *relax.Layout
	// Entry names the function to start in (required).
	Entry string
	// MaxInsts caps dynamic instructions (default 2,000,000).
	MaxInsts int64
	// InitRegs seeds argument registers before the run.
	InitRegs map[x86.Reg]uint64
	// CollectTrace gathers every Event into Result.Trace.
	CollectTrace bool
	// OnEvent, when set, streams events (independently of
	// CollectTrace).
	OnEvent func(Event)
	// SampleEvery takes a register snapshot every N instructions
	// (0 = no samples), emulating PMU-based sampling.
	SampleEvery int64
	// ExternalCalls makes calls to unknown symbols return
	// immediately with deterministic clobbers instead of failing.
	ExternalCalls bool
}

// Result is the outcome of a run.
type Result struct {
	Trace    []Event
	Samples  []Sample
	State    *State
	Executed int64
}

// machine is the executor's working set.
type machine struct {
	cfg    *Config
	state  *State
	layout *relax.Layout

	sectionBase map[string]int64
	nextInst    map[*ir.Node]*ir.Node // successor instruction per node
	labelFirst  map[string]*ir.Node   // first instruction at/after label
	byAddr      map[int64]*ir.Node    // effective address -> instruction
	symbols     map[string]int64      // label -> effective address

	executed int64
	res      *Result
}

// Run executes the unit from cfg.Entry until the entry function
// returns, MaxInsts is reached (an error), or the program faults.
func Run(cfg *Config) (*Result, error) {
	if cfg.Unit == nil || cfg.Layout == nil {
		return nil, fmt.Errorf("exec: Unit and Layout are required")
	}
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = 2_000_000
	}
	m := &machine{
		cfg:    cfg,
		state:  NewState(),
		layout: cfg.Layout,
		res:    &Result{},
	}
	m.buildMaps()
	if err := m.initData(); err != nil {
		return nil, err
	}
	for r, v := range cfg.InitRegs {
		m.state.WriteReg(r, v)
	}

	entry := m.cfg.Unit.FindLabel(cfg.Entry)
	if entry == nil {
		return nil, fmt.Errorf("exec: entry %q not found", cfg.Entry)
	}
	cur := m.firstInstAfter(entry)
	if cur == nil {
		return nil, fmt.Errorf("exec: entry %q has no instructions", cfg.Entry)
	}

	// Plant the terminating return address.
	rsp := m.state.ReadReg(x86.RSP) - 8
	m.state.WriteReg(x86.RSP, rsp)
	m.state.WriteMem(rsp, retSentry, 8)

	for cur != nil {
		if m.executed >= cfg.MaxInsts {
			return m.res, fmt.Errorf("exec: instruction budget (%d) exhausted", cfg.MaxInsts)
		}
		next, err := m.step(cur)
		if err != nil {
			return m.res, fmt.Errorf("exec: at %v: %w", cur.Inst, err)
		}
		m.executed++
		if cfg.SampleEvery > 0 && m.executed%cfg.SampleEvery == 0 {
			m.res.Samples = append(m.res.Samples, Sample{
				Index: m.executed, Node: cur, GPR: m.state.GPR,
			})
		}
		cur = next
	}
	m.res.State = m.state
	m.res.Executed = m.executed
	return m.res, nil
}

// EffAddr returns a node's effective (based) address.
func (m *machine) effAddr(n *ir.Node) int64 {
	return m.sectionBase[n.Section] + m.layout.Addr(n)
}

func (m *machine) buildMaps() {
	u := m.cfg.Unit
	m.sectionBase = make(map[string]int64)
	next := int64(DataBase)
	for _, sec := range u.Sections() {
		if strings.HasPrefix(sec, ".text") {
			m.sectionBase[sec] = TextBase
			continue
		}
		m.sectionBase[sec] = next
		next += 0x100000
	}

	m.nextInst = make(map[*ir.Node]*ir.Node)
	m.labelFirst = make(map[string]*ir.Node)
	m.byAddr = make(map[int64]*ir.Node)
	m.symbols = make(map[string]int64)

	var prev *ir.Node
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeLabel {
			m.symbols[n.Label] = m.effAddr(n)
		}
		if n.Kind == ir.NodeInst {
			if prev != nil {
				m.nextInst[prev] = n
			}
			prev = n
			m.byAddr[m.effAddr(n)] = n
		}
	}
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeLabel {
			m.labelFirst[n.Label] = n.NextInst()
		}
	}
}

// firstInstAfter returns the first instruction node at or after n.
func (m *machine) firstInstAfter(n *ir.Node) *ir.Node {
	if n.Kind == ir.NodeInst {
		return n
	}
	return n.NextInst()
}

// initData materializes data-section directives into memory, resolving
// label arguments (jump tables) to effective addresses.
func (m *machine) initData() error {
	u := m.cfg.Unit
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind != ir.NodeDirective || strings.HasPrefix(n.Section, ".text") {
			continue
		}
		addr := uint64(m.effAddr(n))
		d := n.Dir
		size, ok := d.DataWidth()
		if !ok {
			continue // .zero/.skip stay zero; strings not needed by corpus
		}
		for _, arg := range d.Args {
			v, err := m.dataValue(arg)
			if err != nil {
				return fmt.Errorf("exec: %s: %v", d, err)
			}
			m.state.WriteMem(addr, v, size)
			addr += uint64(size)
		}
	}
	return nil
}

// dataValue evaluates a data-directive argument: integer, label, or
// label±offset.
func (m *machine) dataValue(arg string) (uint64, error) {
	arg = strings.TrimSpace(arg)
	if v, err := strconv.ParseInt(arg, 0, 64); err == nil {
		return uint64(v), nil
	}
	if u, err := strconv.ParseUint(arg, 0, 64); err == nil {
		return u, nil
	}
	// label or label±off
	sym := arg
	var off int64
	if i := strings.IndexAny(arg[1:], "+-"); i >= 0 {
		sym = arg[:i+1]
		v, err := strconv.ParseInt(arg[i+1:], 0, 64)
		if err != nil {
			return 0, fmt.Errorf("bad data value %q", arg)
		}
		off = v
	}
	base, ok := m.symbols[sym]
	if !ok {
		return 0, fmt.Errorf("unknown symbol %q in data", sym)
	}
	return uint64(base + off), nil
}

// symbolAddr resolves a symbol to its effective address.
func (m *machine) symbolAddr(sym string) (int64, bool) {
	a, ok := m.symbols[sym]
	return a, ok
}

// memEffAddr computes the effective address of a memory operand.
func (m *machine) memEffAddr(mem x86.Mem) (uint64, error) {
	var addr int64
	if mem.Sym != "" {
		base, ok := m.symbolAddr(mem.Sym)
		if !ok {
			return 0, fmt.Errorf("unknown symbol %q", mem.Sym)
		}
		addr = base + mem.Disp
		if mem.IsRIPRel() {
			return uint64(addr), nil
		}
	} else {
		addr = mem.Disp
	}
	if mem.Base != x86.RegNone && mem.Base != x86.RIP {
		addr += int64(m.state.ReadReg(mem.Base))
	}
	if mem.Index != x86.RegNone {
		addr += int64(m.state.ReadReg(mem.Index)) * int64(mem.EffScale())
	}
	return uint64(addr), nil
}

// emit records one event.
func (m *machine) emit(ev Event) {
	if m.cfg.CollectTrace {
		m.res.Trace = append(m.res.Trace, ev)
	}
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(ev)
	}
}
