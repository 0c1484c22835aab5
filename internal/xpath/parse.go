package xpath

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// ErrSyntax reports a malformed expression; every syntax error Parse
// returns wraps it, so callers (an HTTP handler deciding between 400
// and 500, say) can classify without string matching.
var ErrSyntax = errors.New("xpath: syntax error")

// ErrLimit reports that an expression exceeded a parse limit (length,
// step count, predicate count, or nesting depth). Like ErrSyntax it is
// a client-input error, but it rejects well-formed input that is too
// expensive to plan and evaluate rather than input that is wrong.
var ErrLimit = errors.New("xpath: query limit exceeded")

// Limits bounds how large a query expression may be. Query planning,
// NoK compilation and refinement all walk the query tree, so an
// unbounded expression is an unbounded amount of per-query work before
// a single record is read. A zero field selects the package default; a
// negative field disables that limit.
type Limits struct {
	MaxLength int // bytes of expression text
	MaxSteps  int // total steps, including steps inside predicates
	MaxPreds  int // total predicates
	MaxDepth  int // predicate nesting depth
}

// Default query limits. MaxSteps tracks the NoK evaluator's 64-node
// bitmask bound: queries past it could parse, but never evaluate.
const (
	DefaultMaxLength = 4096
	DefaultMaxSteps  = 128
	DefaultMaxPreds  = 64
	DefaultMaxDepth  = 24
)

// effective resolves the zero-means-default, negative-means-unlimited
// convention into concrete bounds (0 = unlimited).
func (l Limits) effective() Limits {
	resolve := func(v, def int) int {
		switch {
		case v < 0:
			return 0
		case v == 0:
			return def
		default:
			return v
		}
	}
	return Limits{
		MaxLength: resolve(l.MaxLength, DefaultMaxLength),
		MaxSteps:  resolve(l.MaxSteps, DefaultMaxSteps),
		MaxPreds:  resolve(l.MaxPreds, DefaultMaxPreds),
		MaxDepth:  resolve(l.MaxDepth, DefaultMaxDepth),
	}
}

// Parse parses an absolute path expression of the supported fragment:
//
//	path    := axis step (axis step)*
//	axis    := '/' | '//'
//	step    := name pred*
//	pred    := '[' rel ( '=' string )? ']'
//	rel     := ( './/' | '' ) name pred* ( axis name pred* )*
//	string  := '"' chars '"'
//
// Whitespace is permitted around '=' and inside predicates. The default
// Limits apply; syntax errors wrap ErrSyntax, limit violations wrap
// ErrLimit.
func Parse(input string) (*Path, error) {
	return ParseWithLimits(input, Limits{})
}

// ParseWithLimits is Parse under explicit expression limits; see Limits
// for the zero/negative conventions.
func ParseWithLimits(input string, lim Limits) (*Path, error) {
	lim = lim.effective()
	if lim.MaxLength > 0 && len(input) > lim.MaxLength {
		return nil, fmt.Errorf("%w: expression is %d bytes, limit %d", ErrLimit, len(input), lim.MaxLength)
	}
	p := &parser{src: input, lim: lim}
	path, err := p.parsePath()
	if err != nil {
		if errors.Is(err, ErrLimit) {
			return nil, fmt.Errorf("%w (input %.80q)", err, input)
		}
		return nil, fmt.Errorf("%w: %v (input %.80q)", ErrSyntax, err, input)
	}
	return path, nil
}

// MustParse is Parse that panics on error; for tests and fixed query
// tables.
func MustParse(input string) *Path {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

// FirstStep returns the axis and name of expr's first step, read with
// the parser's own rules, without parsing the rest: ok is false when the
// text does not start with an axis and a name. A text FirstStep accepts
// may still be malformed further on; only Parse tells.
func FirstStep(expr string) (axis Axis, name string, ok bool) {
	p := &parser{src: expr}
	p.skipSpace()
	if axis, ok = p.axis(); !ok {
		return Child, "", false
	}
	name, err := p.name()
	if err != nil {
		return Child, "", false
	}
	return axis, name, true
}

type parser struct {
	src string
	pos int
	lim Limits

	steps, preds, depth int // running counts against lim
}

func (p *parser) parsePath() (*Path, error) {
	var path Path
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			break
		}
		axis, ok := p.axis()
		if !ok {
			return nil, fmt.Errorf("expected axis at offset %d", p.pos)
		}
		step, err := p.step(axis)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
	}
	if len(path.Steps) == 0 {
		return nil, fmt.Errorf("empty expression")
	}
	return &path, nil
}

func (p *parser) axis() (Axis, bool) {
	if !p.eat('/') {
		return Child, false
	}
	if p.eat('/') {
		return Descendant, true
	}
	return Child, true
}

func (p *parser) step(axis Axis) (*Step, error) {
	p.steps++
	if p.lim.MaxSteps > 0 && p.steps > p.lim.MaxSteps {
		return nil, fmt.Errorf("%w: more than %d steps", ErrLimit, p.lim.MaxSteps)
	}
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	s := &Step{Axis: axis, Name: name}
	for {
		p.skipSpace()
		if !p.eat('[') {
			break
		}
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		if !p.eat(']') {
			return nil, fmt.Errorf("expected ']' at offset %d", p.pos)
		}
		s.Preds = append(s.Preds, pred)
	}
	return s, nil
}

// predicate parses one bracketed predicate. It is the parser's only
// recursion (predicate → step → predicate), so the nesting-depth limit
// lives here: it is what keeps a hostile expression like `a[b[c[…` from
// overflowing the goroutine stack.
func (p *parser) predicate() (*Predicate, error) {
	p.preds++
	if p.lim.MaxPreds > 0 && p.preds > p.lim.MaxPreds {
		return nil, fmt.Errorf("%w: more than %d predicates", ErrLimit, p.lim.MaxPreds)
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.lim.MaxDepth > 0 && p.depth > p.lim.MaxDepth {
		return nil, fmt.Errorf("%w: predicates nested deeper than %d", ErrLimit, p.lim.MaxDepth)
	}
	pred := &Predicate{}
	p.skipSpace()
	// Value-only predicate [.="v"] or [. = "v"].
	if p.peek() == '.' && p.peekAt(1) != '/' {
		p.pos++
		p.skipSpace()
		if !p.eat('=') {
			return nil, fmt.Errorf("expected '=' after '.' at offset %d", p.pos)
		}
		v, err := p.quoted()
		if err != nil {
			return nil, err
		}
		pred.Value, pred.HasValue = v, true
		return pred, nil
	}
	first := Child
	if strings.HasPrefix(p.src[p.pos:], ".//") {
		p.pos += 3
		first = Descendant
	} else if strings.HasPrefix(p.src[p.pos:], "//") {
		p.pos += 2
		first = Descendant
	}
	for {
		step, err := p.step(first)
		if err != nil {
			return nil, err
		}
		pred.Path = append(pred.Path, step)
		p.skipSpace()
		axis, ok := p.axis()
		if !ok {
			break
		}
		first = axis
	}
	p.skipSpace()
	if p.eat('=') {
		v, err := p.quoted()
		if err != nil {
			return nil, err
		}
		pred.Value, pred.HasValue = v, true
	}
	return pred, nil
}

func (p *parser) name() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isNameRune(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected name at offset %d", start)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) quoted() (string, error) {
	p.skipSpace()
	quote := p.peek()
	if quote != '"' && quote != '\'' {
		return "", fmt.Errorf("expected quoted string at offset %d", p.pos)
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != quote {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", fmt.Errorf("unterminated string starting at offset %d", start)
	}
	v := p.src[start:p.pos]
	p.pos++
	return v, nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) eat(c byte) bool {
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *parser) peekAt(off int) byte {
	if p.pos+off < len(p.src) {
		return p.src[p.pos+off]
	}
	return 0
}

func isNameRune(r rune) bool {
	return r == '_' || r == '-' || r == ':' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
