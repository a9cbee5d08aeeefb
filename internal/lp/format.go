package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements a minimal LP text format, in the spirit of the
// lp_solve format, used by cmd/lpsolve and by tests:
//
//	// comments start with // or #
//	min: 2 x + 3 y;            // or "max:"
//	c1: x + y >= 4;
//	c2: x - 2 y <= 3;
//	x <= 10;                   // single-variable rows become bounds
//	free y;                    // y ∈ (-inf, +inf)
//
// Variables default to [0, +inf). Statements end with ';'. Terms are
// "[coef] [*] name" with an optional sign.

// WriteLP renders the model in the LP text format.
func WriteLP(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	obj := "min"
	if m.maximize {
		obj = "max"
	}
	fmt.Fprintf(bw, "// model %s\n%s:", m.name, obj)
	wrote := false
	for j, c := range m.obj {
		if c == 0 {
			continue
		}
		writeTerm(bw, c, m.VarName(VarID(j)), !wrote)
		wrote = true
	}
	if !wrote {
		bw.WriteString(" 0")
	}
	bw.WriteString(";\n")

	// Group coefficients by row.
	type term struct {
		v    int32
		coef float64
	}
	rows := make(map[int32][]term, len(m.senses))
	for k := range m.vals {
		rows[m.rows[k]] = append(rows[m.rows[k]], term{m.cols[k], m.vals[k]})
	}
	for i := range m.senses {
		ts := rows[int32(i)]
		sort.SliceStable(ts, func(a, b int) bool { return ts[a].v < ts[b].v })
		fmt.Fprintf(bw, "%s:", m.ConstrName(ConstrID(i)))
		first := true
		for _, t := range ts {
			writeTerm(bw, t.coef, m.VarName(VarID(t.v)), first)
			first = false
		}
		if first {
			bw.WriteString(" 0")
		}
		fmt.Fprintf(bw, " %s %s;\n", m.senses[i], fmtNum(m.rhs[i]))
	}
	for j := range m.lb {
		l, u := m.lb[j], m.ub[j]
		name := m.VarName(VarID(j))
		switch {
		case math.IsInf(l, -1) && math.IsInf(u, 1):
			fmt.Fprintf(bw, "free %s;\n", name)
		case l == 0 && math.IsInf(u, 1):
			// default; nothing to write
		case math.IsInf(u, 1):
			fmt.Fprintf(bw, "%s >= %s;\n", name, fmtNum(l))
		case math.IsInf(l, -1):
			fmt.Fprintf(bw, "%s <= %s;\n", name, fmtNum(u))
		default:
			fmt.Fprintf(bw, "%s <= %s <= %s;\n", fmtNum(l), name, fmtNum(u))
		}
	}
	return bw.Flush()
}

func writeTerm(w *bufio.Writer, coef float64, name string, first bool) {
	switch {
	case first && coef == 1:
		fmt.Fprintf(w, " %s", name)
	case first:
		fmt.Fprintf(w, " %s %s", fmtNum(coef), name)
	case coef == 1:
		fmt.Fprintf(w, " + %s", name)
	case coef == -1:
		fmt.Fprintf(w, " - %s", name)
	case coef < 0:
		fmt.Fprintf(w, " - %s %s", fmtNum(-coef), name)
	default:
		fmt.Fprintf(w, " + %s %s", fmtNum(coef), name)
	}
}

func fmtNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseLP reads a model in the LP text format.
func ParseLP(r io.Reader) (*Model, error) {
	m := NewModel("parsed")
	varIDs := map[string]VarID{}
	getVar := func(name string) VarID {
		if id, ok := varIDs[name]; ok {
			return id
		}
		id := m.AddVar(name, 0, math.Inf(1), 0)
		varIDs[name] = id
		return id
	}

	// Tokenize into ';'-separated statements, stripping comments.
	var sb strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	sawObjective := false
	autoCon := 0
	for _, stmt := range strings.Split(sb.String(), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		lower := strings.ToLower(stmt)
		switch {
		case strings.HasPrefix(lower, "min:") || strings.HasPrefix(lower, "max:"):
			if sawObjective {
				return nil, fmt.Errorf("lp: duplicate objective %q", stmt)
			}
			sawObjective = true
			m.SetMaximize(strings.HasPrefix(lower, "max:"))
			terms, err := parseTerms(stmt[4:], getVar)
			if err != nil {
				return nil, fmt.Errorf("lp: objective: %w", err)
			}
			for _, t := range terms {
				m.obj[t.v] += t.coef
			}
		case strings.HasPrefix(lower, "free "):
			for _, name := range strings.Fields(stmt[5:]) {
				v := getVar(strings.TrimSuffix(name, ","))
				m.SetBounds(v, math.Inf(-1), math.Inf(1))
			}
		default:
			if err := parseConstraintOrBound(m, stmt, getVar, &autoCon); err != nil {
				return nil, err
			}
		}
	}
	if !sawObjective {
		return nil, fmt.Errorf("lp: missing objective (min: / max:)")
	}
	return m, nil
}

type parsedTerm struct {
	v    VarID
	coef float64
}

// parseTerms parses "[±] [coef] [*] name ..." sequences.
func parseTerms(s string, getVar func(string) VarID) ([]parsedTerm, error) {
	var fields []string
	for _, f := range strings.Fields(strings.ReplaceAll(s, "*", " ")) {
		fields = splitSigns(f, fields)
	}
	var out []parsedTerm
	signVal := 1.0
	coef := math.NaN() // NaN = not seen
	for _, f := range fields {
		switch f {
		case "+":
			continue
		case "-":
			signVal = -signVal
			continue
		}
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			if !math.IsNaN(coef) {
				return nil, fmt.Errorf("two consecutive numbers near %q", f)
			}
			coef = v
			continue
		}
		c := 1.0
		if !math.IsNaN(coef) {
			c = coef
		}
		out = append(out, parsedTerm{getVar(f), signVal * c})
		signVal, coef = 1, math.NaN()
	}
	if !math.IsNaN(coef) {
		return nil, fmt.Errorf("dangling number %g", coef)
	}
	return out, nil
}

// splitSigns appends the pieces of the blank-free field f to fields:
// every '+' and '-' is a piece of its own, except the sign of a
// number's exponent (the 1e-05 WriteLP prints), which stays inside the
// number.
func splitSigns(f string, fields []string) []string {
	start := 0
	for i := 0; i < len(f); i++ {
		if (f[i] != '+' && f[i] != '-') || isMantissaE(f[start:i]) {
			continue
		}
		if i > start {
			fields = append(fields, f[start:i])
		}
		fields = append(fields, f[i:i+1])
		start = i + 1
	}
	if start < len(f) {
		fields = append(fields, f[start:])
	}
	return fields
}

// isMantissaE reports whether s is a decimal mantissa followed by 'e'
// or 'E', such as "1e" or "2.5E": a sign after it belongs to the
// exponent. A name such as "x1e" or "e" is no mantissa.
func isMantissaE(s string) bool {
	n := len(s)
	if n < 2 || (s[n-1] != 'e' && s[n-1] != 'E') {
		return false
	}
	digits, dot := false, false
	for _, c := range s[:n-1] {
		switch {
		case c >= '0' && c <= '9':
			digits = true
		case c == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return digits
}

// parseConstraintOrBound handles "name: expr OP rhs", "expr OP rhs",
// "lo <= var <= hi".
func parseConstraintOrBound(m *Model, stmt string, getVar func(string) VarID, autoCon *int) error {
	name := ""
	if i := strings.Index(stmt, ":"); i >= 0 {
		name = strings.TrimSpace(stmt[:i])
		stmt = stmt[i+1:]
	}
	parts, ops, err := splitRelations(stmt)
	if err != nil {
		return err
	}
	switch len(ops) {
	case 1:
		// "rhs OP expr" order (e.g. "4 <= x + y") first.
		if lhsNum, errNum := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); errNum == nil {
			terms, err := parseTerms(parts[1], getVar)
			if err != nil {
				return fmt.Errorf("lp: constraint %q: %w", stmt, err)
			}
			return addRow(m, name, terms, flipSense(ops[0]), lhsNum, autoCon)
		}
		lhsTerms, err := parseTerms(parts[0], getVar)
		if err != nil {
			return fmt.Errorf("lp: constraint %q: %w", stmt, err)
		}
		rhs, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return fmt.Errorf("lp: constraint %q: non-numeric rhs", stmt)
		}
		return addRow(m, name, lhsTerms, ops[0], rhs, autoCon)
	case 2:
		// lo <= var <= hi (bounds only; middle must be one identifier)
		lo, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		hi, err2 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		varName := strings.TrimSpace(parts[1])
		if err1 != nil || err2 != nil || ops[0] != LE || ops[1] != LE ||
			len(strings.Fields(varName)) != 1 {
			return fmt.Errorf("lp: unsupported range statement %q", stmt)
		}
		if _, numeric := strconv.ParseFloat(varName, 64); numeric == nil {
			return fmt.Errorf("lp: range statement %q has numeric middle", stmt)
		}
		v := getVar(varName)
		m.SetBounds(v, lo, hi)
		return nil
	default:
		return fmt.Errorf("lp: statement %q has no relation", stmt)
	}
}

func flipSense(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// addRow adds either a constraint or, for single-variable rows with
// unit coefficient, tightens the variable bound.
func addRow(m *Model, name string, terms []parsedTerm, sense Sense, rhs float64, autoCon *int) error {
	if len(terms) == 1 && terms[0].coef == 1 && name == "" {
		v := terms[0].v
		l, u := m.Bounds(v)
		switch sense {
		case LE:
			if rhs < u {
				u = rhs
			}
		case GE:
			if rhs > l {
				l = rhs
			}
		case EQ:
			l, u = rhs, rhs
		}
		m.SetBounds(v, l, u)
		return nil
	}
	if name == "" {
		*autoCon++
		name = fmt.Sprintf("r%d", *autoCon)
	}
	c := m.AddConstr(name, sense, rhs)
	for _, t := range terms {
		m.AddTerm(c, t.v, t.coef)
	}
	return nil
}

// splitRelations splits a statement on <=, >=, =, returning the pieces
// and the senses between them.
func splitRelations(s string) (parts []string, ops []Sense, err error) {
	cur := strings.Builder{}
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '<' || s[i] == '>':
			op := GE
			if s[i] == '<' {
				op = LE
			}
			if i+1 < len(s) && s[i+1] == '=' {
				i++
			}
			parts = append(parts, cur.String())
			cur.Reset()
			ops = append(ops, op)
		case s[i] == '=':
			parts = append(parts, cur.String())
			cur.Reset()
			ops = append(ops, EQ)
		default:
			cur.WriteByte(s[i])
		}
	}
	parts = append(parts, cur.String())
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("lp: no relation in %q", s)
	}
	return parts, ops, nil
}
