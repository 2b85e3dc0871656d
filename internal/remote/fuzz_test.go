package remote

import (
	"math"
	"strconv"
	"testing"
)

// FuzzParseRetryAfter: the Retry-After parser never panics, a hint it
// accepts is never negative, "0" means retry now, and NaN, ±Inf and
// negative values are refused. Seeds live in
// testdata/fuzz/FuzzParseRetryAfter.
func FuzzParseRetryAfter(f *testing.F) {
	for _, s := range []string{"0", "0.05", "2", "-1", "NaN", "Inf", "-Inf", "1e300", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, ok := parseRetryAfter(s)
		if ok && d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, true", s, d)
		}
		if s == "0" && (d != 0 || !ok) {
			t.Fatalf(`parseRetryAfter("0") = %v, %v; want 0, true`, d, ok)
		}
		if !ok && d != 0 {
			t.Fatalf("refused parseRetryAfter(%q) returned %v", s, d)
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) && ok {
			t.Fatalf("parseRetryAfter(%q) accepted %v", s, d)
		}
	})
}
