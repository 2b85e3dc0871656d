package perf

import (
	"os"
	"sync"
	"testing"
	"time"
)

// stageStats returns the Snapshot entry of stage, and whether there is
// one.
func stageStats(r *Recorder, stage string) (StageStats, bool) {
	for _, st := range r.Snapshot() {
		if st.Stage == stage {
			return st, true
		}
	}
	return StageStats{}, false
}

func TestQuantileNearestRank(t *testing.T) {
	r := NewRecorder()
	// 1..100ms, inserted out of order.
	for i := 100; i >= 1; i-- {
		r.Observe("judge", time.Duration(i)*time.Millisecond)
	}
	st, _ := stageStats(r, "judge")
	if st.P50 != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", st.P50)
	}
	if st.P99 != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", st.P99)
	}
	if st.Count != 100 {
		t.Errorf("Count = %d, want 100", st.Count)
	}
	if _, ok := stageStats(r, "missing"); ok {
		t.Errorf("a stage with no samples is in the snapshot")
	}
}

func TestQuantileSingleSample(t *testing.T) {
	r := NewRecorder()
	r.Observe("exec", 7*time.Millisecond)
	if st, _ := stageStats(r, "exec"); st.P50 != 7*time.Millisecond || st.P99 != 7*time.Millisecond {
		t.Errorf("p50 %v p99 %v, want 7ms both", st.P50, st.P99)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Observe("compile", time.Millisecond)
				r.Observe("exec", 2*time.Millisecond)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Stage != "compile" || snap[1].Stage != "exec" {
		t.Fatalf("Snapshot = %+v, want stages [compile exec]", snap)
	}
	for _, st := range snap {
		if st.Count != 800 {
			t.Errorf("Count(%s) = %d, want 800", st.Stage, st.Count)
		}
	}
}

func TestRate(t *testing.T) {
	if got := Rate(100, 2*time.Second); got != 50 {
		t.Errorf("Rate = %v, want 50", got)
	}
	if got := Rate(100, 0); got != 0 {
		t.Errorf("Rate with zero elapsed = %v, want 0", got)
	}
}

func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.out"
	mem := dir + "/mem.out"
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Some work for the profiler to see.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i % 7
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesEmptyPathsNoop(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(t.TempDir()+"/missing-dir/cpu.out", ""); err == nil {
		t.Fatal("want error for uncreatable cpu profile path")
	}
}

func TestReportQuantilesEmitsPerStageFamilies(t *testing.T) {
	r := NewRecorder()
	r.Observe("compile", 2*time.Millisecond)
	r.Observe("compile", 4*time.Millisecond)
	r.Observe("escalate", 9*time.Millisecond)
	got := map[string]float64{}
	r.ReportQuantiles(func(n float64, unit string) { got[unit] = n })
	// One p50 and one p99 family per recorded stage — whatever the
	// stage names are, with no built-in list.
	want := []string{"compile-p50-ns", "compile-p99-ns", "escalate-p50-ns", "escalate-p99-ns"}
	if len(got) != len(want) {
		t.Fatalf("got %d metrics %v, want %d", len(got), got, len(want))
	}
	for _, unit := range want {
		if _, ok := got[unit]; !ok {
			t.Errorf("missing metric %s", unit)
		}
	}
	if got["compile-p50-ns"] != float64(2*time.Millisecond) {
		t.Errorf("compile-p50-ns = %v, want %v", got["compile-p50-ns"], float64(2*time.Millisecond))
	}
	if got["escalate-p99-ns"] != float64(9*time.Millisecond) {
		t.Errorf("escalate-p99-ns = %v, want %v", got["escalate-p99-ns"], float64(9*time.Millisecond))
	}
}
