// Package asm parses and executes the symbolic assembly emitted by
// internal/codegen. It closes the verification loop at the lowest level
// of the compiler: the register-machine execution of the final assembly
// must leave memory exactly as the tuple interpreter (ir.Exec) leaves it
// on the original block, proving that scheduling AND register allocation
// AND emission together preserved the program.
//
// Grammar (one instruction per line; "label:" lines and blank lines are
// skipped; ';' starts a comment):
//
//	NOP
//	[wait=K] INSTR ...            ; explicit-interlock prefix
//	[back=K] INSTR ...            ; Tera lookback-count prefix
//	LI    Rd, #imm
//	LOAD  Rd, var
//	STORE var, Rs|#imm
//	NEG   Rd, Rs|#imm
//	ADD|SUB|MUL|DIV|MOD  Rd, Rs|#imm, Rs|#imm
package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// OpCode is an assembly operation.
type OpCode uint8

// Assembly opcodes.
const (
	NOP OpCode = iota
	LI
	LOAD
	STORE
	NEG
	ADD
	SUB
	MUL
	DIV
	MOD
)

var opNames = map[string]OpCode{
	"NOP": NOP, "LI": LI, "LOAD": LOAD, "STORE": STORE, "NEG": NEG,
	"ADD": ADD, "SUB": SUB, "MUL": MUL, "DIV": DIV, "MOD": MOD,
}

var opStrings = map[OpCode]string{
	NOP: "NOP", LI: "LI", LOAD: "LOAD", STORE: "STORE", NEG: "NEG",
	ADD: "ADD", SUB: "SUB", MUL: "MUL", DIV: "DIV", MOD: "MOD",
}

// String returns the mnemonic.
func (o OpCode) String() string {
	if s, ok := opStrings[o]; ok {
		return s
	}
	return fmt.Sprintf("OpCode(%d)", uint8(o))
}

// Src is a source operand: a register or an immediate.
type Src struct {
	IsImm bool
	Reg   int
	Imm   int64
}

// String renders the operand in assembly syntax.
func (s Src) String() string {
	if s.IsImm {
		return fmt.Sprintf("#%d", s.Imm)
	}
	return fmt.Sprintf("R%d", s.Reg)
}

// Instr is one parsed assembly instruction.
type Instr struct {
	Op   OpCode
	Wait int    // explicit-interlock wait count ([wait=K] prefix)
	Back int    // Tera lookback count ([back=K] prefix)
	Rd   int    // destination register (LI, LOAD, NEG, arith)
	Var  string // variable name (LOAD, STORE)
	A, B Src    // source operands
	Line int    // 1-based source line, for diagnostics
}

// String renders the instruction back to assembly.
func (in Instr) String() string {
	prefix := ""
	if in.Wait > 0 {
		prefix = fmt.Sprintf("[wait=%d] ", in.Wait)
	}
	if in.Back > 0 {
		prefix += fmt.Sprintf("[back=%d] ", in.Back)
	}
	switch in.Op {
	case NOP:
		return prefix + "NOP"
	case LI:
		return fmt.Sprintf("%sLI R%d, %s", prefix, in.Rd, in.A)
	case LOAD:
		return fmt.Sprintf("%sLOAD R%d, %s", prefix, in.Rd, in.Var)
	case STORE:
		return fmt.Sprintf("%sSTORE %s, %s", prefix, in.Var, in.A)
	case NEG:
		return fmt.Sprintf("%sNEG R%d, %s", prefix, in.Rd, in.A)
	default:
		return fmt.Sprintf("%s%s R%d, %s, %s", prefix, in.Op, in.Rd, in.A, in.B)
	}
}

// Program is a parsed assembly listing.
type Program struct {
	Label  string
	Instrs []Instr
}

// NumRegisters returns 1 + the highest register index referenced.
func (p *Program) NumRegisters() int {
	max := -1
	consider := func(r int) {
		if r > max {
			max = r
		}
	}
	for _, in := range p.Instrs {
		consider(in.Rd)
		if !in.A.IsImm {
			consider(in.A.Reg)
		}
		if !in.B.IsImm {
			consider(in.B.Reg)
		}
	}
	return max + 1
}

// Parse reads an assembly listing.
func Parse(text string) (*Program, error) {
	p := &Program{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			p.Label = strings.TrimSuffix(line, ":")
			continue
		}
		in, err := parseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", lineNo+1, err)
		}
		in.Line = lineNo + 1
		p.Instrs = append(p.Instrs, in)
	}
	return p, nil
}

func parseInstr(line string) (Instr, error) {
	var in Instr
	// Optional interlock prefixes ([wait=K] and/or [back=K]).
	for strings.HasPrefix(line, "[") {
		end := strings.Index(line, "]")
		if end < 0 {
			return in, fmt.Errorf("unterminated interlock prefix")
		}
		body := line[1:end]
		switch {
		case strings.HasPrefix(body, "wait="):
			w, err := strconv.Atoi(body[len("wait="):])
			if err != nil || w < 0 {
				return in, fmt.Errorf("bad wait count in %q", line)
			}
			in.Wait = w
		case strings.HasPrefix(body, "back="):
			k, err := strconv.Atoi(body[len("back="):])
			if err != nil || k < 0 {
				return in, fmt.Errorf("bad lookback count in %q", line)
			}
			in.Back = k
		default:
			return in, fmt.Errorf("unknown interlock prefix %q", body)
		}
		line = strings.TrimSpace(line[end+1:])
	}
	fields := strings.SplitN(line, " ", 2)
	op, ok := opNames[fields[0]]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	in.Op = op
	var operands []string
	if len(fields) == 2 {
		for _, part := range strings.Split(fields[1], ",") {
			operands = append(operands, strings.TrimSpace(part))
		}
	}
	need := map[OpCode]int{NOP: 0, LI: 2, LOAD: 2, STORE: 2, NEG: 2,
		ADD: 3, SUB: 3, MUL: 3, DIV: 3, MOD: 3}[op]
	if len(operands) != need {
		return in, fmt.Errorf("%s takes %d operands, got %d", op, need, len(operands))
	}
	var err error
	switch op {
	case NOP:
	case LI:
		if in.Rd, err = parseReg(operands[0]); err != nil {
			return in, err
		}
		if in.A, err = parseSrc(operands[1]); err != nil {
			return in, err
		}
		if !in.A.IsImm {
			return in, fmt.Errorf("LI needs an immediate, got %q", operands[1])
		}
	case LOAD:
		if in.Rd, err = parseReg(operands[0]); err != nil {
			return in, err
		}
		if err := checkVar(operands[1]); err != nil {
			return in, err
		}
		in.Var = operands[1]
	case STORE:
		if err := checkVar(operands[0]); err != nil {
			return in, err
		}
		in.Var = operands[0]
		if in.A, err = parseSrc(operands[1]); err != nil {
			return in, err
		}
	case NEG:
		if in.Rd, err = parseReg(operands[0]); err != nil {
			return in, err
		}
		if in.A, err = parseSrc(operands[1]); err != nil {
			return in, err
		}
	default: // binary arithmetic
		if in.Rd, err = parseReg(operands[0]); err != nil {
			return in, err
		}
		if in.A, err = parseSrc(operands[1]); err != nil {
			return in, err
		}
		if in.B, err = parseSrc(operands[2]); err != nil {
			return in, err
		}
	}
	return in, nil
}

func parseReg(s string) (int, error) {
	if !strings.HasPrefix(s, "R") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return n, nil
}

func parseSrc(s string) (Src, error) {
	if strings.HasPrefix(s, "#") {
		v, err := strconv.ParseInt(s[1:], 10, 64)
		if err != nil {
			return Src{}, fmt.Errorf("bad immediate %q", s)
		}
		return Src{IsImm: true, Imm: v}, nil
	}
	r, err := parseReg(s)
	if err != nil {
		return Src{}, err
	}
	return Src{Reg: r}, nil
}

func checkVar(s string) error {
	if s == "" || strings.HasPrefix(s, "R") && len(s) > 1 && s[1] >= '0' && s[1] <= '9' {
		return fmt.Errorf("expected variable name, got %q", s)
	}
	if strings.HasPrefix(s, "#") {
		return fmt.Errorf("expected variable name, got immediate %q", s)
	}
	return nil
}

// Machine is the architectural state of the register-machine interpreter.
type Machine struct {
	Regs   []int64
	Memory map[string]int64
}

// NewMachine prepares a machine with the given register file size and a
// copy of the initial memory.
func NewMachine(numRegs int, memory map[string]int64) *Machine {
	m := &Machine{Regs: make([]int64, numRegs), Memory: map[string]int64{}}
	for k, v := range memory {
		m.Memory[k] = v
	}
	return m
}

// Exec executes the program sequentially (architectural semantics: the
// timing behaviour is the simulator's job, the values are this one's).
func (m *Machine) Exec(p *Program) error {
	read := func(s Src) (int64, error) {
		if s.IsImm {
			return s.Imm, nil
		}
		if s.Reg >= len(m.Regs) {
			return 0, fmt.Errorf("asm: register R%d out of range", s.Reg)
		}
		return m.Regs[s.Reg], nil
	}
	write := func(r int, v int64) error {
		if r >= len(m.Regs) {
			return fmt.Errorf("asm: register R%d out of range", r)
		}
		m.Regs[r] = v
		return nil
	}
	for _, in := range p.Instrs {
		switch in.Op {
		case NOP:
		case LI:
			if err := write(in.Rd, in.A.Imm); err != nil {
				return err
			}
		case LOAD:
			if err := write(in.Rd, m.Memory[in.Var]); err != nil {
				return err
			}
		case STORE:
			v, err := read(in.A)
			if err != nil {
				return err
			}
			m.Memory[in.Var] = v
		case NEG:
			v, err := read(in.A)
			if err != nil {
				return err
			}
			if err := write(in.Rd, -v); err != nil {
				return err
			}
		case ADD, SUB, MUL, DIV, MOD:
			a, err := read(in.A)
			if err != nil {
				return err
			}
			b, err := read(in.B)
			if err != nil {
				return err
			}
			var v int64
			switch in.Op {
			case ADD:
				v = a + b
			case SUB:
				v = a - b
			case MUL:
				v = a * b
			case DIV:
				if b == 0 {
					return fmt.Errorf("asm: line %d: division by zero", in.Line)
				}
				v = a / b
			case MOD:
				if b == 0 {
					return fmt.Errorf("asm: line %d: remainder by zero", in.Line)
				}
				v = a % b
			}
			if err := write(in.Rd, v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("asm: line %d: unsupported op %v", in.Line, in.Op)
		}
	}
	return nil
}

// Run parses and executes text over a fresh machine, returning final
// memory.
func Run(text string, memory map[string]int64) (map[string]int64, error) {
	p, err := Parse(text)
	if err != nil {
		return nil, err
	}
	m := NewMachine(p.NumRegisters(), memory)
	if err := m.Exec(p); err != nil {
		return nil, err
	}
	return m.Memory, nil
}
