package machine

import (
	"runtime"
	"testing"

	"repro/internal/spec"
)

// bytesPerRun is the mean heap bytes one call of f allocates, over
// runs calls on one P so that no other goroutine's allocations land in
// the measurement.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNumericArrayByteBudget holds a numeric array to 8 bytes per
// element: a double[4096] plus its device mirror, copied in and out,
// must cost under two 32 KB payloads plus a small slack for the run
// itself. Element storage of 24-byte values needs three times that.
func TestNumericArrayByteBudget(t *testing.T) {
	const n = 4096
	res := compileMaybe(`#include <stdio.h>
#define N 4096
int main() {
    double a[N];
    a[7] = 1.5;
    #pragma acc data copyin(a[0:N])
    {
        #pragma acc parallel loop
        for (int i = 0; i < 4; i++) {
            a[i] = a[i + 4] * 2;
        }
    }
    printf("%g\n", a[7]);
    return 0;
}
`, spec.OpenACC)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	const slack = 16 << 10
	got := bytesPerRun(20, func() {
		if r := Run(res.Object, Options{Workers: 1}); r.Stdout != "1.5\n" {
			t.Fatalf("stdout %q stderr %q, want \"1.5\\n\"", r.Stdout, r.Stderr)
		}
	})
	t.Logf("%d bytes per run", got)
	if limit := uint64(2*n*8 + slack); got >= limit {
		t.Fatalf("run allocated %d bytes, want under %d (two %d-element payloads of 8 bytes plus %d slack)", got, limit, n, slack)
	}
}
