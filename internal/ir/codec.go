package ir

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The textual tuple format, one tuple per line:
//
//	label:
//	  1: Const 15
//	  2: Store #b, @1
//	  3: Load #a
//	  4: Mul @1, @3
//	  5: Store #a, @4
//
// Operands: "#name" is a variable, "@n" a tuple reference, a bare integer
// an immediate, and "_" the absent operand. Lines beginning with ';' or
// '//' are comments. Blank lines separate blocks.

// ParseBlocks reads any number of blocks in the textual tuple format.
// Every parsed block is validated before being returned.
func ParseBlocks(r io.Reader) ([]*Block, error) {
	var (
		blocks []*Block
		cur    *Block
		lineNo int
	)
	flush := func() error {
		if cur == nil {
			return nil
		}
		if err := cur.Validate(); err != nil {
			return fmt.Errorf("block %q: %w", cur.Label, err)
		}
		blocks = append(blocks, cur)
		cur = nil
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(line, ";") || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(strings.TrimSuffix(line, ":"), " \t") {
			// A bare "name:" line starts a new labeled block, unless it
			// parses as a tuple header (digits only), which it cannot:
			// tuple lines always carry an op after the colon.
			label := strings.TrimSuffix(line, ":")
			if label == "" {
				return nil, fmt.Errorf("line %d: empty block label", lineNo)
			}
			if err := flush(); err != nil {
				return nil, err
			}
			cur = NewBlock(label)
			continue
		}
		if cur == nil {
			cur = NewBlock("")
		}
		t, err := ParseTuple(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		cur.Tuples = append(cur.Tuples, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return blocks, nil
}

// ParseBlock parses exactly one block from s.
func ParseBlock(s string) (*Block, error) {
	blocks, err := ParseBlocks(strings.NewReader(s))
	if err != nil {
		return nil, err
	}
	if len(blocks) != 1 {
		return nil, fmt.Errorf("ir: expected exactly one block, found %d", len(blocks))
	}
	return blocks[0], nil
}

// ParseTuple parses a single tuple line such as "4: Mul @1, @3".
func ParseTuple(line string) (Tuple, error) {
	colon := strings.Index(line, ":")
	if colon < 0 {
		return Tuple{}, fmt.Errorf("ir: tuple line %q lacks 'id:' prefix", line)
	}
	id, err := strconv.Atoi(strings.TrimSpace(line[:colon]))
	if err != nil {
		return Tuple{}, fmt.Errorf("ir: bad tuple ID in %q: %w", line, err)
	}
	rest := strings.TrimSpace(line[colon+1:])
	if rest == "" {
		return Tuple{}, fmt.Errorf("ir: tuple %d has no operation", id)
	}
	fields := strings.SplitN(rest, " ", 2)
	op, err := ParseOp(fields[0])
	if err != nil {
		return Tuple{}, err
	}
	t := Tuple{ID: id, Op: op}
	var operands []string
	if len(fields) == 2 {
		for _, part := range strings.Split(fields[1], ",") {
			operands = append(operands, strings.TrimSpace(part))
		}
	}
	if len(operands) != op.NumOperands() {
		return Tuple{}, fmt.Errorf("ir: tuple %d: %s expects %d operands, got %d",
			id, op, op.NumOperands(), len(operands))
	}
	if len(operands) >= 1 {
		if t.A, err = ParseOperand(operands[0]); err != nil {
			return Tuple{}, fmt.Errorf("ir: tuple %d: %w", id, err)
		}
	}
	if len(operands) >= 2 {
		if t.B, err = ParseOperand(operands[1]); err != nil {
			return Tuple{}, fmt.Errorf("ir: tuple %d: %w", id, err)
		}
	}
	return t, nil
}

// ParseOperand parses one operand in the textual syntax.
func ParseOperand(s string) (Operand, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "" || s == "_":
		return None(), nil
	case strings.HasPrefix(s, "#"):
		name := s[1:]
		if name == "" {
			return Operand{}, fmt.Errorf("empty variable name")
		}
		return Var(name), nil
	case strings.HasPrefix(s, "@"):
		n, err := strconv.Atoi(s[1:])
		if err != nil {
			return Operand{}, fmt.Errorf("bad tuple reference %q: %w", s, err)
		}
		return Ref(n), nil
	default:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad operand %q", s)
		}
		return Imm(v), nil
	}
}
