// Package vasm implements a textual assembly language for the VCODE
// instruction set, using the paper's instruction naming (v_addii is
// written addii).  It is both a demonstration client — every instruction
// line maps one-to-one onto a VCODE per-instruction call — and a handy
// tool: cmd/vasm assembles a file, installs the functions on a simulated
// target, and runs one of them.
//
// Syntax:
//
//	; comment
//	.func name (%i%i) leaf     ; v_lambda: signature and leaf flag
//	.reg  acc var i            ; v_getreg: named register, class, type
//	.local buf d               ; v_local: named stack slot (use with ld/st)
//	    seti    acc, 0
//	loop:                      ; label binds here
//	    addi    acc, acc, arg0
//	    subii   arg1, arg1, 1
//	    bgtii   arg1, 0, loop
//	    reti    acc
//	.end                       ; v_end
//
// Registers: arg0..argN name the incoming parameters, t0../s0../ft0../fs0..
// are the hard-coded names of §5.3, and .reg-declared names are
// allocator-managed.  call <func> invokes another .func from the same
// file (resolved through a function table, so order and recursion are
// unconstrained); callsym <symbol> invokes a machine symbol.
//
// Data sections declare named tables in simulated memory:
//
//	.data squares
//	.word 0, 1, 4, 9, 16
//
// and generated code takes their address with `setsym rd, squares`.
package vasm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Program is an assembled unit, ready to install.
type Program struct {
	Funcs map[string]*core.Func
	Order []string

	machine *core.Machine
	slots   map[string]int
	table   uint64
}

// Assemble parses and assembles src for the machine's backend.  All
// functions are installed and cross-function calls resolved.
func Assemble(machine *core.Machine, src string) (*Program, error) {
	p := &parser{
		machine: machine,
		backend: machine.Backend(),
		prog: &Program{
			Funcs:   map[string]*core.Func{},
			machine: machine,
			slots:   map[string]int{},
		},
	}
	if err := p.scanFuncs(src); err != nil {
		return nil, err
	}
	if err := p.layoutData(src); err != nil {
		return nil, err
	}
	ptr := p.backend.PtrBytes()
	table, err := machine.Alloc(ptr * len(p.prog.slots))
	if err != nil {
		return nil, err
	}
	p.prog.table = table
	if err := p.assemble(src); err != nil {
		return nil, err
	}
	for _, name := range p.prog.Order {
		if err := machine.Install(p.prog.Funcs[name]); err != nil {
			return nil, err
		}
	}
	for name, slot := range p.prog.slots {
		addr := table + uint64(slot*ptr)
		if err := machine.Mem().Store(addr, ptr, machine.TakeAddr(p.prog.Funcs[name])); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

// Run calls an assembled function.
func (p *Program) Run(name string, args ...core.Value) (core.Value, error) {
	fn, ok := p.Funcs[name]
	if !ok {
		return core.Value{}, fmt.Errorf("vasm: no function %q", name)
	}
	return p.machine.Call(fn, args...)
}

type parser struct {
	machine *core.Machine
	backend core.Backend
	prog    *Program

	// per-function state
	a      *core.Asm
	name   string
	regs   map[string]core.Reg
	locals map[string]int64
	labels map[string]core.Label
	line   int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("vasm: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// scanFuncs pre-registers every function name so calls resolve in any
// order.
func (p *parser) scanFuncs(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		f := fields(raw)
		if len(f) > 0 && f[0] == ".func" {
			if len(f) < 2 {
				return p.errf(".func needs a name")
			}
			if _, dup := p.prog.slots[f[1]]; dup {
				return p.errf("function %q redefined", f[1])
			}
			p.prog.slots[f[1]] = len(p.prog.slots)
			p.prog.Order = append(p.prog.Order, f[1])
		}
	}
	return nil
}

// layoutData allocates and fills .data sections and registers their
// symbols before any code is assembled.
func (p *parser) layoutData(src string) error {
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		p.line = i + 1
		f := fields(lines[i])
		if len(f) == 0 || f[0] != ".data" {
			continue
		}
		if len(f) != 2 {
			return p.errf(".data needs a name")
		}
		name := f[1]
		var words []uint32
		j := i + 1
		for ; j < len(lines); j++ {
			p.line = j + 1
			df := fields(lines[j])
			if len(df) == 0 {
				continue
			}
			if df[0] != ".word" {
				break
			}
			for _, tok := range df[1:] {
				v, err := strconv.ParseInt(tok, 0, 64)
				if err != nil {
					return p.errf("bad .word value %q", tok)
				}
				words = append(words, uint32(v))
			}
		}
		if len(words) == 0 {
			return p.errf(".data %s has no .word lines", name)
		}
		addr, err := p.machine.Alloc(4 * len(words))
		if err != nil {
			return p.errf("%v", err)
		}
		for k, w := range words {
			if err := p.machine.Mem().Store(addr+uint64(4*k), 4, uint64(w)); err != nil {
				return p.errf("%v", err)
			}
		}
		if err := p.machine.DefineSym(name, addr); err != nil {
			return p.errf("%v", err)
		}
		i = j - 1
	}
	return nil
}

// fields splits an assembly line into tokens, dropping comments and
// commas.
func fields(raw string) []string {
	if i := strings.IndexByte(raw, ';'); i >= 0 {
		raw = raw[:i]
	}
	raw = strings.ReplaceAll(raw, ",", " ")
	return strings.Fields(raw)
}

func (p *parser) assemble(src string) error {
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		p.line = i + 1
		f := fields(lines[i])
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case ".func":
			if p.a != nil {
				return p.errf("nested .func")
			}
			if err := p.beginFunc(f[1:]); err != nil {
				return err
			}
		case ".end":
			if p.a == nil {
				return p.errf(".end outside .func")
			}
			fn, err := p.a.End()
			if err != nil {
				return p.errf("%v", err)
			}
			p.prog.Funcs[p.name] = fn
			p.a = nil
		case ".data", ".word":
			// Consumed by layoutData; must sit outside functions.
			if p.a != nil {
				return p.errf("%s inside .func", f[0])
			}
		case ".reg":
			if err := p.declReg(f[1:]); err != nil {
				return err
			}
		case ".local":
			if err := p.declLocal(f[1:]); err != nil {
				return err
			}
		default:
			if p.a == nil {
				return p.errf("instruction outside .func")
			}
			if strings.HasSuffix(f[0], ":") {
				p.a.Bind(p.label(strings.TrimSuffix(f[0], ":")))
				f = f[1:]
				if len(f) == 0 {
					continue
				}
			}
			if err := p.insn(f); err != nil {
				return err
			}
		}
	}
	if p.a != nil {
		return p.errf("missing .end")
	}
	return nil
}

func (p *parser) beginFunc(f []string) error {
	if len(f) < 2 {
		return p.errf(".func needs: name (sig) [leaf]")
	}
	p.name = f[0]
	sig := strings.Trim(f[1], "()")
	leaf := len(f) > 2 && f[2] == "leaf"
	p.a = core.NewAsm(p.backend)
	p.a.SetName(p.name)
	args, err := p.a.Begin(sig, leaf)
	if err != nil {
		return p.errf("%v", err)
	}
	p.regs = map[string]core.Reg{}
	p.locals = map[string]int64{}
	p.labels = map[string]core.Label{}
	for i, r := range args {
		p.regs[fmt.Sprintf("arg%d", i)] = r
	}
	return nil
}

func (p *parser) declReg(f []string) error {
	if p.a == nil {
		return p.errf(".reg outside .func")
	}
	if len(f) != 3 {
		return p.errf(".reg needs: name temp|var type")
	}
	class := core.Temp
	switch f[1] {
	case "temp":
	case "var":
		class = core.Var
	default:
		return p.errf("class %q (want temp or var)", f[1])
	}
	t, err := core.ParseType(f[2])
	if err != nil {
		return p.errf("%v", err)
	}
	var r core.Reg
	if t.IsFloat() {
		r, err = p.a.GetFReg(class)
	} else {
		r, err = p.a.GetReg(class)
	}
	if err != nil {
		return p.errf("%v", err)
	}
	p.regs[f[0]] = r
	return nil
}

func (p *parser) declLocal(f []string) error {
	if p.a == nil {
		return p.errf(".local outside .func")
	}
	if len(f) != 2 {
		return p.errf(".local needs: name type")
	}
	t, err := core.ParseType(f[1])
	if err != nil {
		return p.errf("%v", err)
	}
	p.locals[f[0]] = p.a.Local(t)
	return nil
}

func (p *parser) label(name string) core.Label {
	if l, ok := p.labels[name]; ok {
		return l
	}
	l := p.a.NewLabel()
	p.labels[name] = l
	return l
}

func (p *parser) reg(tok string) (core.Reg, error) {
	if r, ok := p.regs[tok]; ok {
		return r, nil
	}
	if tok == "sp" {
		return p.a.SP(), nil
	}
	for _, h := range []struct {
		prefix string
		get    func(int) core.Reg
	}{
		{"ft", p.a.FT}, {"fs", p.a.FS}, {"t", p.a.T}, {"s", p.a.S},
	} {
		if strings.HasPrefix(tok, h.prefix) {
			if n, err := strconv.Atoi(tok[len(h.prefix):]); err == nil {
				r := h.get(n)
				if err := p.a.Err(); err != nil {
					return core.NoReg, p.errf("%q: %v", tok, err)
				}
				return r, nil
			}
		}
	}
	return core.NoReg, p.errf("unknown register %q", tok)
}

func (p *parser) imm(tok string) (int64, error) {
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return 0, p.errf("bad immediate %q", tok)
	}
	return v, nil
}
