package report

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/spec"
)

func sampleSummary(d spec.Dialect) metrics.Summary {
	var outcomes []metrics.Outcome
	for issue := probe.Issue(0); issue < probe.NumIssues; issue++ {
		for i := 0; i < 10; i++ {
			outcomes = append(outcomes, metrics.Outcome{
				Issue:       issue,
				JudgedValid: (i%2 == 0) == issue.Valid(),
			})
		}
	}
	return metrics.Score(d, outcomes)
}

func TestTableRenderAlignment(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"A", "LongHeader"}}
	tb.AddRow("xxxxxxxx", "1")
	tb.AddRow("y", "2")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Fatalf("rows not aligned:\n%s", out)
	}
}

func TestPerIssueTable(t *testing.T) {
	out := PerIssueTable("Table I", sampleSummary(spec.OpenACC))
	for _, want := range []string{
		"Table I",
		"Removed ACC memory allocation / swapped ACC directive",
		"Removed an opening bracket",
		"No issue",
		"50%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestPairedPerIssueTable(t *testing.T) {
	a, b := sampleSummary(spec.OpenMP), sampleSummary(spec.OpenMP)
	out := PairedPerIssueTable("Table V", "Pipeline 1", "Pipeline 2", a, b)
	for _, want := range []string{"Pipeline 1 Accuracy", "Pipeline 2 Accuracy", "OMP"} {
		if !strings.Contains(out, want) {
			t.Errorf("paired table missing %q:\n%s", want, out)
		}
	}
}

func TestOverallTable(t *testing.T) {
	cols := map[string][]metrics.Summary{
		"OpenACC": {sampleSummary(spec.OpenACC), sampleSummary(spec.OpenACC)},
		"OpenMP":  {sampleSummary(spec.OpenMP), sampleSummary(spec.OpenMP)},
	}
	out := OverallTable("Table VI", []string{"Pipeline 1", "Pipeline 2"}, cols)
	for _, want := range []string{
		"Total Count",
		"Total Pipeline 1 Mistakes",
		"Overall Pipeline 2 Accuracy",
		"Pipeline 1 Bias",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("overall table missing %q:\n%s", want, out)
		}
	}
	// Column order: OpenACC before OpenMP.
	header := strings.SplitN(out, "\n", 3)[1]
	if strings.Index(header, "OpenACC") > strings.Index(header, "OpenMP") {
		t.Errorf("dialect columns out of order: %q", header)
	}
}

func TestRadarSeries(t *testing.T) {
	out := RadarSeries("Figure 3", []string{"P1", "P2"},
		[]metrics.Summary{sampleSummary(spec.OpenACC), sampleSummary(spec.OpenACC)})
	for _, want := range []string{
		"Figure 3",
		`series "P1"`,
		`series "P2"`,
		"Improper Directives",
		"Valid Recognition",
		"Test Logic",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("radar missing %q:\n%s", want, out)
		}
	}
}

func TestRadarSeriesEmpty(t *testing.T) {
	out := RadarSeries("F", nil, nil)
	if !strings.Contains(out, "F") {
		t.Fatal("empty radar lost title")
	}
}
