// Package frontend parses the mini assignment-statement language whose
// compiled form is the tuple code of Figure 3 in the paper. A source
// block is a sequence of statements like
//
//	b = 15;
//	a = b * a;
//	c = -(a + 3) / b + a % 2;
//
// Identifiers name integer variables; expressions use + - * / %, unary
// minus and parentheses, with the usual precedence. Statements end with
// ';' (a trailing newline also terminates a statement, so the semicolon
// is optional at line ends). Comments run from '#' or '//' to the end of
// the line.
package frontend

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokAssign    // =
	tokPlus      // +
	tokMinus     // -
	tokStar      // *
	tokSlash     // /
	tokPercent   // %
	tokLParen    // (
	tokRParen    // )
	tokSemicolon // ; or newline
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokAssign:
		return "'='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokPercent:
		return "'%'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokSemicolon:
		return "';'"
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

// token is one lexical token with its source line for error reporting.
// A number's value is parsed from its text again by the parser; lex has
// already checked that it fits.
type token struct {
	text string
	line int32
	kind tokenKind
}

// lex splits src into tokens. Newlines become statement separators
// (tokSemicolon) so that semicolons are optional at line ends.
func lex(src string) ([]token, error) {
	// Most sources hold about one token per two bytes. Token texts are
	// substrings of src, so they share its storage.
	toks := make([]token, 0, len(src)/2+1)
	line := int32(1)
	i := 0
	emit := func(k tokenKind, text string) {
		toks = append(toks, token{kind: k, text: text, line: line})
	}
	// at decodes the rune at byte offset j and its width.
	at := func(j int) (rune, int) {
		if c := src[j]; c < utf8.RuneSelf {
			return rune(c), 1
		}
		return utf8.DecodeRuneInString(src[j:])
	}
	for i < len(src) {
		c, _ := at(i)
		switch {
		case c == '\n':
			emit(tokSemicolon, "\\n")
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ';':
			emit(tokSemicolon, ";")
			i++
		case c == '=':
			emit(tokAssign, "=")
			i++
		case c == '+':
			emit(tokPlus, "+")
			i++
		case c == '-':
			emit(tokMinus, "-")
			i++
		case c == '*':
			emit(tokStar, "*")
			i++
		case c == '/':
			emit(tokSlash, "/")
			i++
		case c == '%':
			emit(tokPercent, "%")
			i++
		case c == '(':
			emit(tokLParen, "(")
			i++
		case c == ')':
			emit(tokRParen, ")")
			i++
		case unicode.IsDigit(c):
			j := i
			for j < len(src) {
				d, w := at(j)
				if !unicode.IsDigit(d) {
					break
				}
				j += w
			}
			text := src[i:j]
			if _, err := strconv.ParseInt(text, 10, 64); err != nil {
				return nil, fmt.Errorf("frontend: line %d: number %q out of range", line, text)
			}
			emit(tokNumber, text)
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(src) {
				d, w := at(j)
				if !unicode.IsLetter(d) && !unicode.IsDigit(d) && d != '_' {
					break
				}
				j += w
			}
			emit(tokIdent, src[i:j])
			i = j
		default:
			return nil, fmt.Errorf("frontend: line %d: unexpected character %q", line, string(c))
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line})
	return toks, nil
}
