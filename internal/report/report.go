// Package report renders experiment results in the shapes the paper
// publishes: per-issue accuracy tables (Tables I, II, IV, V, VII,
// VIII), overall accuracy/bias tables (Tables III, VI, IX), and the
// radar-plot series of Figures 3-6 (as labelled data series, since the
// reproduction is terminal-based).
package report

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Table builds a fixed-width ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render produces the aligned table text.
func (t *Table) Render() string {
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
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

// PerIssueTable renders a Table I/II-style single-configuration
// per-issue table.
func PerIssueTable(title string, s metrics.Summary) string {
	t := Table{
		Title:   title,
		Headers: []string{"Issue Type", "Total Count", "Correct", "Incorrect", "Accuracy"},
	}
	for _, p := range s.PerIssue {
		t.AddRow(
			p.Issue.Description(s.Dialect),
			fmt.Sprintf("%d", p.Count),
			fmt.Sprintf("%d", p.Correct),
			fmt.Sprintf("%d", p.Incorrect),
			pct(p.Accuracy()),
		)
	}
	return t.Render()
}

// PairedPerIssueTable renders a Table IV/V/VII/VIII-style table
// comparing two configurations on the same suite.
func PairedPerIssueTable(title, nameA, nameB string, a, b metrics.Summary) string {
	t := Table{
		Title: title,
		Headers: []string{"Issue Type", "Total Count",
			nameA + " Correct", nameB + " Correct",
			nameA + " Accuracy", nameB + " Accuracy"},
	}
	for i := range a.PerIssue {
		pa, pb := a.PerIssue[i], b.PerIssue[i]
		t.AddRow(
			pa.Issue.Description(a.Dialect),
			fmt.Sprintf("%d", pa.Count),
			fmt.Sprintf("%d", pa.Correct),
			fmt.Sprintf("%d", pb.Correct),
			pct(pa.Accuracy()),
			pct(pb.Accuracy()),
		)
	}
	return t.Render()
}

// OverallTable renders a Table III/VI/IX-style overall block for any
// number of named configurations per dialect column.
func OverallTable(title string, names []string, columns map[string][]metrics.Summary) string {
	// columns maps dialect label -> summaries aligned with names.
	var dialects []string
	for d := range columns {
		dialects = append(dialects, d)
	}
	// Stable order: OpenACC before OpenMP.
	if len(dialects) == 2 && dialects[0] != "OpenACC" {
		dialects[0], dialects[1] = dialects[1], dialects[0]
	}
	t := Table{Title: title, Headers: append([]string{"Datapoint"}, dialects...)}
	row := func(label string, f func(metrics.Summary) string) {
		cells := []string{label}
		for _, d := range dialects {
			cells = append(cells, f(columns[d][0]))
		}
		t.AddRow(cells...)
	}
	row("Total Count", func(s metrics.Summary) string { return fmt.Sprintf("%d", s.Total) })
	label := func(parts ...string) string {
		out := ""
		for _, p := range parts {
			if p == "" {
				continue
			}
			if out != "" {
				out += " "
			}
			out += p
		}
		return out
	}
	for i, name := range names {
		idx := i
		cells := []string{label("Total", name, "Mistakes")}
		for _, d := range dialects {
			cells = append(cells, fmt.Sprintf("%d", columns[d][idx].Mistakes))
		}
		t.AddRow(cells...)
	}
	for i, name := range names {
		idx := i
		cells := []string{label("Overall", name, "Accuracy")}
		for _, d := range dialects {
			cells = append(cells, fmt.Sprintf("%.2f%%", 100*columns[d][idx].Accuracy()))
		}
		t.AddRow(cells...)
	}
	for i, name := range names {
		idx := i
		cells := []string{label(name, "Bias")}
		for _, d := range dialects {
			cells = append(cells, fmt.Sprintf("%+.3f", columns[d][idx].Bias()))
		}
		t.AddRow(cells...)
	}
	return t.Render()
}

// RadarSeries renders a Figure 3-6-style radar plot as labelled data
// series plus a coarse ASCII bar rendering per axis.
func RadarSeries(title string, names []string, summaries []metrics.Summary) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	if len(summaries) == 0 {
		return b.String()
	}
	axes := metrics.RadarAxes(summaries[0])
	width := 0
	for _, ax := range axes {
		if len(ax.Label) > width {
			width = len(ax.Label)
		}
	}
	for si, s := range summaries {
		fmt.Fprintf(&b, "series %q:\n", names[si])
		for _, ax := range metrics.RadarAxes(s) {
			bar := strings.Repeat("#", int(ax.Value*30+0.5))
			fmt.Fprintf(&b, "  %-*s %5.1f%% |%-30s|\n", width, ax.Label, 100*ax.Value, bar)
		}
	}
	return b.String()
}
