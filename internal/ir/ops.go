// Package ir defines the tuple intermediate form scheduled by pipesched.
//
// Each instruction is a tuple (ID, Op, A, B) exactly as in the paper
// (section 3.1): ID is the tuple reference number, Op the operation type,
// and A and B the two operands. An operand is a variable name, the result
// of another tuple (named by its reference number), an immediate constant,
// or absent. At this level no registers have been assigned — values flow
// through tuple references, which is what lets the scheduler reorder code
// without artificial register-reuse conflicts.
package ir

import "fmt"

// Op is a tuple operation type.
type Op uint8

// Operation types. The set mirrors the paper's examples (Const, Load,
// Store, Add, Sub, Mul, Div) plus Neg and Mod so that the front end can
// express unary minus and remainder, and Nop for explicit padding.
const (
	Invalid Op = iota
	Nop        // null operation: pipeline filler, never interferes
	Const      // materialize an immediate constant (operand A = Imm)
	Load       // load variable named by A
	Store      // store value B into variable named by A
	Add        // A + B
	Sub        // A - B
	Mul        // A * B
	Div        // A / B
	Mod        // A % B
	Neg        // -A

	// NumOps is one past the largest operation type: the length of a
	// table indexed by Op.
	NumOps
)

var opNames = [NumOps]string{
	Invalid: "Invalid",
	Nop:     "Nop",
	Const:   "Const",
	Load:    "Load",
	Store:   "Store",
	Add:     "Add",
	Sub:     "Sub",
	Mul:     "Mul",
	Div:     "Div",
	Mod:     "Mod",
	Neg:     "Neg",
}

// String returns the canonical mnemonic for o.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation type.
func (o Op) Valid() bool { return o > Invalid && o < NumOps }

// ParseOp converts a mnemonic back to an Op. The match is exact
// (case-sensitive), mirroring the textual tuple format.
func ParseOp(s string) (Op, error) {
	for o, name := range opNames {
		if name == s && Op(o) != Invalid {
			return Op(o), nil
		}
	}
	return Invalid, fmt.Errorf("ir: unknown operation %q", s)
}

// ProducesValue reports whether tuples with operation o yield a result
// that other tuples may reference.
func (o Op) ProducesValue() bool {
	switch o {
	case Const, Load, Add, Sub, Mul, Div, Mod, Neg:
		return true
	}
	return false
}

// IsCommutative reports whether o's operands may be exchanged.
func (o Op) IsCommutative() bool { return o == Add || o == Mul }

// NumOperands returns how many operands tuples with operation o carry.
func (o Op) NumOperands() int {
	switch o {
	case Nop:
		return 0
	case Const, Load, Neg:
		return 1
	case Store, Add, Sub, Mul, Div, Mod:
		return 2
	}
	return 0
}

// TouchesMemory reports whether o reads or writes a named variable.
func (o Op) TouchesMemory() bool { return o == Load || o == Store }
