package machine

import (
	"testing"

	"repro/internal/compiler"
)

// flowRows cover how a statement ends a loop or a call: break,
// continue and return from nested loops, in callees, in recursion and
// in a work-shared chunk, and main falling off its end. The
// expectations were recorded while jumps still unwound by panic:
// statements that return how they ended must reproduce them, and where
// a run is cut, stop at the same step.
var flowRows = []struct {
	name   string
	src    string
	rc     int
	stdout string
	steps  int64
}{
	{name: "return from nested loops in a callee", src: `#include <stdio.h>
int find(int n, int want) {
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            if (i * n + j == want) return i * 10 + j;
    return -1;
}
int main() {
    printf("%d %d\n", find(4, 6), find(2, 9));
    return 0;
}
`,
		rc: 0, stdout: "12 -1\n", steps: 198},
	{name: "return from a while inside a for", src: `#include <stdio.h>
int first(int n) {
    for (int i = 1; i < n; i++) {
        int k = i;
        while (k < 100) {
            k = k * 3;
            if (k % 7 == 0) return i * 1000 + k;
        }
    }
    return 0;
}
int main() {
    printf("%d %d\n", first(10), first(5));
    return 0;
}
`,
		rc: 0, stdout: "7021 0\n", steps: 730},
	{name: "continue in a while", src: `#include <stdio.h>
int main() {
    int i = 0;
    int s = 0;
    while (i < 10) {
        i++;
        if (i % 3 == 0) continue;
        s += i;
    }
    printf("%d %d\n", i, s);
    return 0;
}
`,
		rc: 0, stdout: "10 37\n", steps: 159},
	{name: "break leaves the inner loop", src: `#include <stdio.h>
int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) {
            if (j == i) break;
            s += 10;
        }
        s++;
    }
    printf("%d\n", s);
    return 0;
}
`,
		rc: 0, stdout: "33\n", steps: 107},
	{name: "bare return in a void function", src: `#include <stdio.h>
int count = 0;
void bump(int n) {
    if (n > 2) return;
    count += n;
    return;
}
int main() {
    for (int i = 0; i < 5; i++) bump(i);
    printf("%d\n", count);
    return 0;
}
`,
		rc: 0, stdout: "3\n", steps: 87},
	{name: "recursive return from a loop", src: `#include <stdio.h>
int sum_to(int n) {
    int s = 0;
    for (int i = n; i > 0; i--) {
        if (i % 2 == 0) return s + i + sum_to(i - 1);
        s += i;
    }
    return s;
}
int main() {
    printf("%d %d\n", sum_to(5), sum_to(8));
    return 0;
}
`,
		rc: 0, stdout: "15 36\n", steps: 279},
	{name: "return from main's loop", src: `#include <stdio.h>
int main() {
    for (int i = 0; i < 10; i++) {
        printf("%d\n", i);
        while (i == 3) return i;
    }
    return 0;
}
`,
		rc: 3, stdout: "0\n1\n2\n3\n", steps: 53},
	{name: "break ends a work-shared chunk", src: `#include <stdio.h>
int main() {
    int s = 0;
#pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 8; i++) {
        if (i % 4 == 2) break;
        s += i;
    }
    printf("%d\n", s);
    return 0;
}
`,
		rc: 0, stdout: "10\n", steps: 67},
	{name: "main falls off its end", src: `#include <stdio.h>
int main() {
    printf("done\n");
}
`,
		rc: 0, stdout: "done\n", steps: 3},
}

// TestFlowEndsStatements runs every row through checkCuts.
func TestFlowEndsStatements(t *testing.T) {
	for _, row := range flowRows {
		t.Run(row.name, func(t *testing.T) {
			checkCuts(t, compiler.ClangSim(), row.src, row.rc, row.stdout, "", row.steps)
		})
	}
}
