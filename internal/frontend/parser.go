package frontend

import (
	"fmt"
	"strconv"
)

// Parse parses one source block into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	p.skipSeparators()
	for p.peek().kind != tokEOF {
		stmt, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
		if err := p.expectSeparatorOrEOF(); err != nil {
			return nil, err
		}
		p.skipSeparators()
	}
	return prog, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) skipSeparators() {
	for p.peek().kind == tokSemicolon {
		p.pos++
	}
}

func (p *parser) expectSeparatorOrEOF() error {
	t := p.peek()
	if t.kind == tokSemicolon {
		p.pos++
		return nil
	}
	if t.kind == tokEOF {
		return nil
	}
	return fmt.Errorf("frontend: line %d: expected ';' or newline, found %s", t.line, t.kind)
}

// parseAssign parses "ident = expr".
func (p *parser) parseAssign() (Assign, error) {
	t := p.next()
	if t.kind != tokIdent {
		return Assign{}, fmt.Errorf("frontend: line %d: expected identifier, found %s", t.line, t.kind)
	}
	eq := p.next()
	if eq.kind != tokAssign {
		return Assign{}, fmt.Errorf("frontend: line %d: expected '=', found %s", eq.line, eq.kind)
	}
	e, err := p.parseExpr(0)
	if err != nil {
		return Assign{}, err
	}
	return Assign{Name: t.text, Expr: e, Line: int(t.line)}, nil
}

// binding powers: +,- are 10; *,/,% are 20.
func bindingPower(k tokenKind) (BinOp, int, bool) {
	switch k {
	case tokPlus:
		return OpAdd, 10, true
	case tokMinus:
		return OpSub, 10, true
	case tokStar:
		return OpMul, 20, true
	case tokSlash:
		return OpDiv, 20, true
	case tokPercent:
		return OpMod, 20, true
	}
	return 0, 0, false
}

// parseExpr is a precedence climber: it consumes operators with binding
// power greater than min.
func (p *parser) parseExpr(min int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, bp, ok := bindingPower(p.peek().kind)
		if !ok || bp <= min {
			return left, nil
		}
		p.next()
		right, err := p.parseExpr(bp)
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, X: left, Y: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().kind == tokMinus {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold an immediately negated literal so "-5" is a Num.
		if n, ok := x.(Num); ok {
			return Num{Value: -n.Value}, nil
		}
		return Unary{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		n, _ := strconv.ParseInt(t.text, 10, 64) // lex checked the range
		return Num{Value: n}, nil
	case tokIdent:
		return VarRef{Name: t.text}, nil
	case tokLParen:
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if closer := p.next(); closer.kind != tokRParen {
			return nil, fmt.Errorf("frontend: line %d: expected ')', found %s", closer.line, closer.kind)
		}
		return e, nil
	}
	return nil, fmt.Errorf("frontend: line %d: expected expression, found %s", t.line, t.kind)
}
