// Package codegen converts a scheduled, register-allocated block into
// symbolic target assembly, implementing the architectural delay
// mechanisms of the paper's section 2.2:
//
//   - NOPPadding: the compiler emits explicit NOP instructions (the MIPS
//     approach) — one per tick of required delay.
//   - ExplicitInterlock: each instruction carries a per-tick wait count
//     telling the hardware how long to hold issue.
//   - ImplicitInterlock: no delay information is emitted at all; the
//     hardware scoreboard discovers the delays itself (the classic
//     IBM 801 / SPARC approach).
//   - TeraInterlock: each instruction carries a lookback count naming
//     the earlier instruction whose completion it must await (the Tera
//     machine's encoding [Smi88]).
//
// The first three encode the same timing; the simulator (internal/sim)
// demonstrates they execute in identical total ticks. The Tera encoding
// is coarser (completion-wait) and may legally run a few ticks longer.
package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"pipesched/internal/ir"
	"pipesched/internal/regalloc"
)

// Mode selects the delay mechanism encoded in the emitted assembly.
type Mode uint8

const (
	// NOPPadding emits NOP instructions for every delay tick.
	NOPPadding Mode = iota
	// ExplicitInterlock prefixes delayed instructions with "wait=k".
	ExplicitInterlock
	// ImplicitInterlock emits bare instructions.
	ImplicitInterlock
	// TeraInterlock prefixes instructions with "[back=k]" lookback
	// counts (the Tera-style explicit interlock of section 2.2): the
	// hardware waits for the k-th previous instruction to complete.
	// Emitting this mode requires Program.Back.
	TeraInterlock
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case NOPPadding:
		return "nop-padding"
	case ExplicitInterlock:
		return "explicit-interlock"
	case ImplicitInterlock:
		return "implicit-interlock"
	case TeraInterlock:
		return "tera-interlock"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Program bundles everything codegen needs: the block in final scheduled
// order, the per-position NOP requirements from the scheduler, and the
// register assignment.
type Program struct {
	Block *ir.Block            // tuples in scheduled order
	Eta   []int                // NOPs required before each position
	Regs  *regalloc.Assignment // value tuple -> register
	Back  []int                // Tera lookback counts (TeraInterlock mode only)
	Notes []string             // optional per-position comments (e.g. delay causes)
}

// Emit renders the program as assembly text under the given mode.
func Emit(p Program, mode Mode) (string, error) {
	if len(p.Eta) != p.Block.Len() {
		return "", fmt.Errorf("codegen: eta length %d != block length %d", len(p.Eta), p.Block.Len())
	}
	if mode == TeraInterlock && len(p.Back) != p.Block.Len() {
		return "", fmt.Errorf("codegen: tera mode needs %d lookback counts, have %d",
			p.Block.Len(), len(p.Back))
	}
	buf := make([]byte, 0, sizeHint(p, mode))
	if p.Block.Label != "" {
		buf = append(buf, p.Block.Label...)
		buf = append(buf, ":\n"...)
	}
	for i := range p.Block.Tuples {
		if i < len(p.Notes) && p.Notes[i] != "" {
			buf = append(buf, "\t; "...)
			buf = append(buf, p.Notes[i]...)
			buf = append(buf, '\n')
		}
		buf = append(buf, '\t')
		switch mode {
		case NOPPadding:
			for k := 0; k < p.Eta[i]; k++ {
				buf = append(buf, "NOP\n\t"...)
			}
		case ExplicitInterlock:
			buf = appendTag(buf, "[wait=", p.Eta[i])
		case ImplicitInterlock:
		case TeraInterlock:
			buf = appendTag(buf, "[back=", p.Back[i])
		default:
			return "", fmt.Errorf("codegen: unknown mode %d", mode)
		}
		var err error
		if buf, err = appendInstruction(buf, p.Regs, &p.Block.Tuples[i]); err != nil {
			return "", err
		}
		buf = append(buf, '\n')
	}
	return string(buf), nil
}

// sizeHint estimates the length of the emitted text, so that Emit
// usually allocates its buffer once.
func sizeHint(p Program, mode Mode) int {
	n := len(p.Block.Label) + 2
	for i := range p.Block.Tuples {
		n += 24 + len(p.Block.Tuples[i].A.Var)
		if i < len(p.Notes) {
			n += len(p.Notes[i]) + 4
		}
		if mode == NOPPadding {
			n += 5 * p.Eta[i]
		} else if mode != ImplicitInterlock {
			n += 10
		}
	}
	return n
}

// appendTag appends an interlock tag such as "[wait=3] " when k > 0.
func appendTag(dst []byte, tag string, k int) []byte {
	if k <= 0 {
		return dst
	}
	dst = append(dst, tag...)
	dst = strconv.AppendInt(dst, int64(k), 10)
	return append(dst, "] "...)
}

// mnemonic names the target instruction of each tuple operation.
var mnemonic = [...]string{
	ir.Nop: "NOP", ir.Const: "LI", ir.Load: "LOAD", ir.Store: "STORE", ir.Neg: "NEG",
	ir.Add: "ADD", ir.Sub: "SUB", ir.Mul: "MUL", ir.Div: "DIV", ir.Mod: "MOD",
}

// appendInstruction appends one tuple rendered as a target instruction:
// the mnemonic, then the destination register of a value-producing
// tuple, then its sources.
func appendInstruction(dst []byte, regs *regalloc.Assignment, t *ir.Tuple) ([]byte, error) {
	if int(t.Op) >= len(mnemonic) || mnemonic[t.Op] == "" {
		return nil, fmt.Errorf("codegen: unsupported op %v", t.Op)
	}
	dst = append(dst, mnemonic[t.Op]...)
	switch t.Op {
	case ir.Nop:
		return dst, nil
	case ir.Store:
		dst = append(dst, ' ')
		dst = append(dst, t.A.Var...)
		dst = append(dst, ", "...)
		return appendSource(dst, regs, t.B)
	}
	dst, err := appendReg(append(dst, ' '), regs, t.ID)
	if err != nil {
		return nil, err
	}
	dst = append(dst, ", "...)
	switch t.Op {
	case ir.Const:
		return appendImm(dst, t.A.Imm), nil
	case ir.Load:
		return append(dst, t.A.Var...), nil
	case ir.Neg:
		return appendSource(dst, regs, t.A)
	}
	if dst, err = appendSource(dst, regs, t.A); err != nil {
		return nil, err
	}
	return appendSource(append(dst, ", "...), regs, t.B)
}

// appendReg appends the register holding tuple id's value.
func appendReg(dst []byte, regs *regalloc.Assignment, id int) ([]byte, error) {
	r, ok := regs.RegOf[id]
	if !ok {
		return nil, fmt.Errorf("codegen: tuple @%d has no register", id)
	}
	return strconv.AppendInt(append(dst, 'R'), int64(r), 10), nil
}

// appendSource appends a source operand: a register or an immediate.
func appendSource(dst []byte, regs *regalloc.Assignment, o ir.Operand) ([]byte, error) {
	switch o.Kind {
	case ir.RefOperand:
		return appendReg(dst, regs, o.Ref)
	case ir.ImmOperand:
		return appendImm(dst, o.Imm), nil
	}
	return nil, fmt.Errorf("codegen: operand %v cannot be a source", o)
}

func appendImm(dst []byte, v int64) []byte {
	return strconv.AppendInt(append(dst, '#'), v, 10)
}

// CountLines returns instruction and NOP counts of emitted assembly —
// convenient for tests and reports.
func CountLines(asm string) (instructions, nops int) {
	for _, line := range strings.Split(asm, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasSuffix(line, ":") {
			continue
		}
		if line == "NOP" {
			nops++
		} else {
			instructions++
		}
	}
	return instructions, nops
}
