// Package qasm parses and prints the OpenQASM 2.0 subset that the AccQOC
// benchmark suite uses: a single quantum register, the qelib1 gate
// vocabulary from package gate, and pass-through handling of creg, measure
// and barrier statements. Parameter expressions support numbers, pi, the
// four arithmetic operators, unary minus and parentheses.
package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
)

// Parse converts OpenQASM 2.0 source into a Circuit. Measure and barrier
// statements are parsed and discarded (the pipeline compiles the unitary
// part of programs). Multiple qregs are concatenated into one wire space in
// declaration order.
func Parse(src string) (*circuit.Circuit, error) {
	p := &parser{}
	lines := splitStatements(src)
	for _, ln := range lines {
		if err := p.statement(ln); err != nil {
			return nil, err
		}
	}
	if p.circ == nil {
		return nil, fmt.Errorf("qasm: no qreg declared")
	}
	return p.circ, nil
}

// ParseBudget parses OpenQASM source under a request-ingestion budget: a
// program exceeding maxGates gates (when maxGates > 0) is rejected so a
// public compilation endpoint cannot be fed an arbitrarily large circuit.
func ParseBudget(src string, maxGates int) (*circuit.Circuit, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if maxGates > 0 && c.GateCount() > maxGates {
		return nil, fmt.Errorf("qasm: program has %d gates, budget is %d", c.GateCount(), maxGates)
	}
	return c, nil
}

// splitStatements strips comments and splits on ';'.
func splitStatements(src string) []string {
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	parts := strings.Split(clean.String(), ";")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// maxQubits caps the parser's total wire count. Parsing itself allocates
// nothing per qubit, but every downstream pass (DAG construction, mapping)
// does — a few-byte declaration like "qreg q[2000000000]" must be rejected
// at the door, not melt the first consumer.
const maxQubits = 1 << 20

// maxExprDepth caps parameter-expression nesting. The expression parser is
// recursive-descent; without a cap, inputs like "rx((((…((1))…)))) q[0]"
// or a long run of unary minuses recurse once per character and overflow
// the goroutine stack (a fatal crash, not a recoverable panic).
const maxExprDepth = 64

type qreg struct {
	name   string
	offset int
	size   int
}

type parser struct {
	regs []qreg
	circ *circuit.Circuit
	n    int
}

func (p *parser) statement(s string) error {
	switch {
	case strings.HasPrefix(s, "OPENQASM"), strings.HasPrefix(s, "include"):
		return nil
	case strings.HasPrefix(s, "qreg"):
		return p.qregDecl(s)
	case strings.HasPrefix(s, "creg"),
		strings.HasPrefix(s, "barrier"),
		strings.HasPrefix(s, "measure"),
		strings.HasPrefix(s, "reset"):
		return nil // parsed and discarded
	default:
		return p.gateStmt(s)
	}
}

func (p *parser) qregDecl(s string) error {
	// qreg name[size]
	body := strings.TrimSpace(strings.TrimPrefix(s, "qreg"))
	name, size, err := parseIndexed(body)
	if err != nil {
		return fmt.Errorf("qasm: bad qreg declaration %q: %w", s, err)
	}
	// A non-positive size is invalid OpenQASM; letting it through used to
	// drive circuit.New(n) with a negative wire count (a panic). The
	// subtraction form of the total-size check cannot overflow.
	if size <= 0 {
		return fmt.Errorf("qasm: qreg %s[%d]: size must be positive", name, size)
	}
	if size > maxQubits-p.n {
		return fmt.Errorf("qasm: qreg %s[%d]: program exceeds %d total qubits", name, size, maxQubits)
	}
	for _, r := range p.regs {
		if r.name == name {
			return fmt.Errorf("qasm: qreg %q redeclared", name)
		}
	}
	p.regs = append(p.regs, qreg{name: name, offset: p.n, size: size})
	p.n += size
	// Widen the wire space in place: gates appended between two qreg
	// declarations are preserved (rebuilding the circuit here used to
	// silently drop them).
	if p.circ == nil {
		p.circ = circuit.New(p.n)
	} else {
		p.circ.NumQubits = p.n
	}
	return nil
}

// parseIndexed parses "name[idx]" returning the name and index.
func parseIndexed(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "[")
	close := strings.Index(s, "]")
	if open < 0 || close < open {
		return "", 0, fmt.Errorf("expected name[index], got %q", s)
	}
	name := strings.TrimSpace(s[:open])
	idx, err := strconv.Atoi(strings.TrimSpace(s[open+1 : close]))
	if err != nil {
		return "", 0, fmt.Errorf("bad index in %q: %w", s, err)
	}
	return name, idx, nil
}

func (p *parser) resolveQubit(ref string) (int, error) {
	name, idx, err := parseIndexed(ref)
	if err != nil {
		return 0, err
	}
	for _, r := range p.regs {
		if r.name == name {
			if idx < 0 || idx >= r.size {
				return 0, fmt.Errorf("qasm: index %d out of range for qreg %s[%d]", idx, name, r.size)
			}
			return r.offset + idx, nil
		}
	}
	return 0, fmt.Errorf("qasm: unknown qreg %q", name)
}

func (p *parser) gateStmt(s string) error {
	if p.circ == nil {
		return fmt.Errorf("qasm: gate %q before any qreg declaration", s)
	}
	// Shape: name[(params)] operand[, operand ...]
	head := s
	var paramText string
	if open := strings.Index(s, "("); open >= 0 {
		depth := 0
		closeAt := -1
		for i := open; i < len(s); i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					closeAt = i
				}
			}
			if closeAt >= 0 {
				break
			}
		}
		if closeAt < 0 {
			return fmt.Errorf("qasm: unbalanced parentheses in %q", s)
		}
		paramText = s[open+1 : closeAt]
		head = s[:open] + " " + s[closeAt+1:]
	}
	fields := strings.Fields(head)
	if len(fields) < 2 {
		return fmt.Errorf("qasm: malformed gate statement %q", s)
	}
	name := gate.Name(fields[0])
	if !gate.Known(name) {
		return fmt.Errorf("qasm: unsupported gate %q in %q", name, s)
	}
	operands := strings.Split(strings.Join(fields[1:], ""), ",")
	qubits := make([]int, 0, len(operands))
	for _, op := range operands {
		q, err := p.resolveQubit(op)
		if err != nil {
			return fmt.Errorf("qasm: %q: %w", s, err)
		}
		qubits = append(qubits, q)
	}
	var params []float64
	if paramText != "" {
		for _, expr := range splitTopLevel(paramText, ',') {
			v, err := evalExpr(expr)
			if err != nil {
				return fmt.Errorf("qasm: %q: %w", s, err)
			}
			// Arithmetic can overflow to ±Inf (e.g. 1e308*10) without a
			// parse error; a non-finite rotation angle is physically
			// meaningless and poisons every downstream unitary with NaNs.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("qasm: %q: parameter %q is not finite", s, expr)
			}
			params = append(params, v)
		}
	}
	return p.circ.Append(name, qubits, params...)
}

// splitTopLevel splits s on sep outside parentheses.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// evalExpr evaluates an arithmetic parameter expression with +,-,*,/,
// unary minus, parentheses, decimal literals and the constant pi.
func evalExpr(s string) (float64, error) {
	e := &exprParser{src: strings.TrimSpace(s)}
	v, err := e.parseSum()
	if err != nil {
		return 0, err
	}
	e.skipSpace()
	if e.pos != len(e.src) {
		return 0, fmt.Errorf("trailing input in expression %q at %d", e.src, e.pos)
	}
	return v, nil
}

type exprParser struct {
	src   string
	pos   int
	depth int
}

func (e *exprParser) skipSpace() {
	for e.pos < len(e.src) && (e.src[e.pos] == ' ' || e.src[e.pos] == '\t') {
		e.pos++
	}
}

func (e *exprParser) peek() byte {
	if e.pos < len(e.src) {
		return e.src[e.pos]
	}
	return 0
}

func (e *exprParser) parseSum() (float64, error) {
	v, err := e.parseProduct()
	if err != nil {
		return 0, err
	}
	for {
		e.skipSpace()
		switch e.peek() {
		case '+':
			e.pos++
			w, err := e.parseProduct()
			if err != nil {
				return 0, err
			}
			v += w
		case '-':
			e.pos++
			w, err := e.parseProduct()
			if err != nil {
				return 0, err
			}
			v -= w
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseProduct() (float64, error) {
	v, err := e.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		e.skipSpace()
		switch e.peek() {
		case '*':
			e.pos++
			w, err := e.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= w
		case '/':
			e.pos++
			w, err := e.parseUnary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("division by zero in %q", e.src)
			}
			v /= w
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseUnary() (float64, error) {
	// Every recursion cycle (unary sign chains, parenthesized sums) passes
	// through here, so this single check bounds the whole parser's stack.
	if e.depth >= maxExprDepth {
		return 0, fmt.Errorf("expression %q nests deeper than %d", e.src, maxExprDepth)
	}
	e.depth++
	defer func() { e.depth-- }()
	e.skipSpace()
	if e.peek() == '-' {
		e.pos++
		v, err := e.parseUnary()
		return -v, err
	}
	if e.peek() == '+' {
		e.pos++
		return e.parseUnary()
	}
	return e.parseAtom()
}

func (e *exprParser) parseAtom() (float64, error) {
	e.skipSpace()
	if e.peek() == '(' {
		e.pos++
		v, err := e.parseSum()
		if err != nil {
			return 0, err
		}
		e.skipSpace()
		if e.peek() != ')' {
			return 0, fmt.Errorf("missing ')' in %q", e.src)
		}
		e.pos++
		return v, nil
	}
	start := e.pos
	for e.pos < len(e.src) {
		c := e.src[e.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
			(c >= 'a' && c <= 'z' && c != 'e') || (c >= 'A' && c <= 'Z' && c != 'E') {
			e.pos++
			continue
		}
		// Allow exponent signs like 1e-3.
		if (c == '+' || c == '-') && e.pos > start &&
			(e.src[e.pos-1] == 'e' || e.src[e.pos-1] == 'E') {
			e.pos++
			continue
		}
		break
	}
	tok := e.src[start:e.pos]
	if tok == "" {
		return 0, fmt.Errorf("expected number or pi at %d in %q", start, e.src)
	}
	if strings.EqualFold(tok, "pi") {
		return math.Pi, nil
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad numeric token %q in %q", tok, e.src)
	}
	return v, nil
}

// Print renders a circuit as OpenQASM 2.0 with a single register q and a
// matching classical register (for round-trip compatibility with common
// tools).
func Print(c *circuit.Circuit) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	fmt.Fprintf(&b, "creg c[%d];\n", c.NumQubits)
	for _, g := range c.Gates {
		b.WriteString(string(g.Name))
		if len(g.Params) > 0 {
			b.WriteByte('(')
			for i, p := range g.Params {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(formatParam(p))
			}
			b.WriteByte(')')
		}
		b.WriteByte(' ')
		for i, q := range g.Qubits {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "q[%d]", q)
		}
		b.WriteString(";\n")
	}
	return b.String()
}

// formatParam prints simple rational multiples of pi symbolically so the
// output resembles hand-written QASM, falling back to full precision.
func formatParam(v float64) string {
	for den := 1; den <= 16; den++ {
		for num := -32; num <= 32; num++ {
			if num == 0 {
				continue
			}
			if math.Abs(v-math.Pi*float64(num)/float64(den)) < 1e-12 {
				s := "pi"
				if num != 1 {
					if num == -1 {
						s = "-pi"
					} else {
						s = fmt.Sprintf("%d*pi", num)
					}
				}
				if den != 1 {
					s += fmt.Sprintf("/%d", den)
				}
				return s
			}
		}
	}
	return strconv.FormatFloat(v, 'g', 17, 64)
}
