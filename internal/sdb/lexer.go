package sdb

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexer token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // reserved words only
)

// token is one lexed token. For keywords Text is uppercased; for symbols
// Text is the operator itself; identifiers keep their original spelling.
type token struct {
	kind tokKind
	text string
	pos  int // byte offset in the input, for error messages
}

// reserved lists the SQL keywords. AS is deliberately absent so the
// paper's "atlasStructure as" alias parses (see package comment).
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true,
	"CREATE": true, "TABLE": true, "TRUE": true, "FALSE": true, "NULL": true,
	"EXPLAIN": true, "ANALYZE": true,
	// Refused with ErrUnsupported, which names them.
	"DELETE": true, "UPDATE": true, "GROUP": true, "ORDER": true,
	"LIMIT": true, "OFFSET": true,
}

// lex tokenizes a SQL string.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			if reserved[strings.ToUpper(word)] {
				toks = append(toks, token{tokKeyword, strings.ToUpper(word), start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			start := i
			seenDot := false
			for i < n {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
				} else if d == '.' && !seenDot {
					seenDot = true
					i++
				} else {
					break
				}
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sdb: unterminated string at offset %d", start)
			}
			toks = append(toks, token{tokString, sb.String(), start})
		default:
			start := i
			// Two-character operators first.
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					toks = append(toks, token{tokSymbol, two, start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '=', '<', '>', '+', '-', '*', '/', '%', ';', '.', '?':
				toks = append(toks, token{tokSymbol, string(c), start})
				i++
			default:
				return nil, fmt.Errorf("sdb: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
