package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned-text table with optional CSV output — the
// format in which every experiment reports the rows the paper's claims
// are checked against.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "## %s\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	total := 0
	for _, width := range widths {
		total += width + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the table in RFC-4180-ish CSV (quotes only when needed).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// PointsTable renders sweep points as a table: one row per X, one column
// per metric formatted as "mean ± ci95".
func PointsTable(title, xHeader string, points []Point) *Table {
	names := MetricNames(points)
	headers := append([]string{xHeader}, names...)
	table := NewTable(title, headers...)
	for _, p := range points {
		row := make([]string, 0, len(headers))
		row = append(row, fmt.Sprintf("%g", p.X))
		for _, name := range names {
			s := p.Samples[name]
			if s == nil || s.N() == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.CI95()))
		}
		table.AddRow(row...)
	}
	return table
}
