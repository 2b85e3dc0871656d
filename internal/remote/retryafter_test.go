package remote

import (
	"testing"
	"time"
)

// TestParseRetryAfter: only finite, non-negative hints that fit a
// time.Duration count as hints; everything else is an absent header.
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"0.05", 50 * time.Millisecond, true},
		{"2", 2 * time.Second, true},
		{"-1", 0, false},
		{"abc", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"1e300", 0, false},
	} {
		got, ok := parseRetryAfter(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}
