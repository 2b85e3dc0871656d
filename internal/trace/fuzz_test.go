package trace

import (
	"encoding/hex"
	"testing"
)

// FuzzTraceIDs: the parsers behind the X-LLM4VV-Trace header never
// panic, accept only 32 (trace) or 16 (span) hex digits, never yield
// the zero trace ID, and read back every non-zero ID they render.
// Seeds live in testdata/fuzz/FuzzTraceIDs.
func FuzzTraceIDs(f *testing.F) {
	f.Add("4bf92f3577b34da6a3ce929d0e0e4736")
	f.Add("00f067aa0ba902b7")
	f.Fuzz(func(t *testing.T, s string) {
		isHex := func() bool { _, err := hex.DecodeString(s); return err == nil }
		if id, ok := ParseTraceID(s); ok {
			if len(s) != 32 || !isHex() {
				t.Fatalf("ParseTraceID accepted %q", s)
			}
			if id.IsZero() {
				t.Fatalf("ParseTraceID(%q) gave the zero ID", s)
			}
		} else if id != (TraceID{}) {
			t.Fatalf("refused ParseTraceID(%q) returned %v", s, id)
		}
		if _, ok := ParseSpanID(s); ok && (len(s) != 16 || !isHex()) {
			t.Fatalf("ParseSpanID accepted %q", s)
		}

		// Every non-zero ID the input spells round-trips through Hex.
		var tid TraceID
		copy(tid[:], s)
		if !tid.IsZero() {
			if got, ok := ParseTraceID(tid.Hex()); !ok || got != tid {
				t.Fatalf("ParseTraceID(%s) = %v, %v", tid.Hex(), got, ok)
			}
		}
		var sid SpanID
		copy(sid[:], s)
		if got, ok := ParseSpanID(sid.Hex()); !ok || got != sid {
			t.Fatalf("ParseSpanID(%s) = %v, %v", sid.Hex(), got, ok)
		}
	})
}
