package compiler

import (
	"strings"
	"testing"

	"repro/internal/testlang"
)

const validACC = `
#include <stdio.h>
#include <stdlib.h>
#define N 512

int main()
{
    double *a = (double *)malloc(N * sizeof(double));
    double *b = (double *)malloc(N * sizeof(double));
    double sum = 0.0;
    for (int i = 0; i < N; i++) {
        a[i] = i * 0.5;
        b[i] = i * 2.0;
    }
#pragma acc data copyin(a[0:N], b[0:N])
    {
#pragma acc parallel loop reduction(+:sum)
        for (int i = 0; i < N; i++) {
            sum += a[i] * b[i];
        }
    }
    double expect = 0.0;
    for (int i = 0; i < N; i++) {
        expect += a[i] * b[i];
    }
    if (sum - expect > 1e-6 || expect - sum > 1e-6) {
        printf("FAIL\n");
        return 1;
    }
    printf("PASS\n");
    free(a);
    free(b);
    return 0;
}
`

const validOMP = `
#include <stdio.h>
#include <stdlib.h>
#define N 256

int main()
{
    int *a = (int *)malloc(N * sizeof(int));
    int total = 0;
    for (int i = 0; i < N; i++) {
        a[i] = i;
    }
#pragma omp target teams distribute parallel for map(to: a[0:N]) reduction(+:total)
    for (int i = 0; i < N; i++) {
        total += a[i];
    }
    if (total != (N - 1) * N / 2) {
        printf("FAIL %d\n", total);
        return 1;
    }
    printf("PASS\n");
    free(a);
    return 0;
}
`

func compileACC(t *testing.T, src string) *Result {
	t.Helper()
	return NVCSim().Compile("test.c", src, testlang.LangC)
}

func compileOMP(t *testing.T, src string) *Result {
	t.Helper()
	return ClangSim().Compile("test.c", src, testlang.LangC)
}

func TestCompileValidACC(t *testing.T) {
	res := compileACC(t, validACC)
	if !res.OK {
		t.Fatalf("valid OpenACC test failed to compile:\n%s", res.Stderr)
	}
	if res.ReturnCode != 0 {
		t.Fatalf("return code = %d", res.ReturnCode)
	}
	if res.Object == nil {
		t.Fatal("no object produced")
	}
	if len(res.Object.Plans) != 2 {
		t.Fatalf("plans = %d, want 2", len(res.Object.Plans))
	}
}

func TestCompileValidOMP(t *testing.T) {
	res := compileOMP(t, validOMP)
	if !res.OK {
		t.Fatalf("valid OpenMP test failed to compile:\n%s", res.Stderr)
	}
}

func TestPlanContents(t *testing.T) {
	res := compileACC(t, validACC)
	if !res.OK {
		t.Fatal(res.Stderr)
	}
	var dataPlan, loopPlan *DirPlan
	for ds, p := range res.Object.Plans {
		switch ds.Dir.Name {
		case "data":
			dataPlan = p
		case "parallel loop":
			loopPlan = p
		}
	}
	if dataPlan == nil || loopPlan == nil {
		t.Fatal("expected plans not found")
	}
	if dataPlan.Kind != KindData {
		t.Fatalf("data kind = %v", dataPlan.Kind)
	}
	if len(dataPlan.Data) != 1 || dataPlan.Data[0].Mode != MCopyIn || len(dataPlan.Data[0].Sections) != 2 {
		t.Fatalf("data ops = %+v", dataPlan.Data)
	}
	if loopPlan.Kind != KindComputeLoop || !loopPlan.Device {
		t.Fatalf("loop plan = %+v", loopPlan)
	}
	if len(loopPlan.Reductions) != 1 || loopPlan.Reductions[0].Op != "+" || loopPlan.Reductions[0].Vars[0].Name != "sum" {
		t.Fatalf("reductions = %+v", loopPlan.Reductions)
	}
}

func TestMissingOpeningBracketFailsCompile(t *testing.T) {
	src := strings.Replace(validACC, "int main()\n{", "int main()\n", 1)
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("missing opening brace compiled")
	}
	if res.ReturnCode != 1 {
		t.Fatalf("return code = %d, want 1", res.ReturnCode)
	}
	if !strings.Contains(res.Stderr, "error") {
		t.Fatalf("stderr lacks error text:\n%s", res.Stderr)
	}
}

func TestUndeclaredVariableFailsCompile(t *testing.T) {
	src := strings.Replace(validACC, "sum += a[i] * b[i];", "sum += a[i] * bogus_var[i];", 1)
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("undeclared variable compiled")
	}
	if !strings.Contains(res.Stderr, "undeclared identifier") {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestUnknownDirectiveFailsCompile(t *testing.T) {
	src := strings.Replace(validACC, "#pragma acc parallel loop reduction(+:sum)",
		"#pragma acc paralel loop reduction(+:sum)", 1)
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("unknown directive compiled")
	}
	if !strings.Contains(res.Stderr, "unknown directive") {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestWrongClauseFailsCompile(t *testing.T) {
	src := strings.Replace(validOMP, "map(to: a[0:N]) reduction(+:total)",
		"copyin(a[0:N]) reduction(+:total)", 1)
	res := compileOMP(t, src)
	if res.OK {
		t.Fatal("OpenACC clause on OpenMP directive compiled")
	}
	if !strings.Contains(res.Stderr, "invalid clause") {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestBadReductionOpFailsCompile(t *testing.T) {
	src := strings.Replace(validACC, "reduction(+:sum)", "reduction(-:sum)", 1)
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("invalid reduction operator compiled")
	}
}

func TestBadMapTypeFailsCompile(t *testing.T) {
	src := strings.Replace(validOMP, "map(to: a[0:N])", "map(copyin: a[0:N])", 1)
	res := compileOMP(t, src)
	if res.OK {
		t.Fatal("invalid map type compiled")
	}
	if !strings.Contains(res.Stderr, "invalid map type") {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestUndeclaredClauseVarFailsCompile(t *testing.T) {
	src := strings.Replace(validACC, "copyin(a[0:N], b[0:N])", "copyin(a[0:N], ghost[0:N])", 1)
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("undeclared clause variable compiled")
	}
	if !strings.Contains(res.Stderr, `"ghost"`) {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestLoopDirectiveRequiresLoop(t *testing.T) {
	src := `
int main() {
    int x = 0;
#pragma acc parallel loop
    x = 1;
    return x - 1;
}
`
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("loop directive without loop compiled")
	}
	if !strings.Contains(res.Stderr, "for loop expected") {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestNonCanonicalLoopRejected(t *testing.T) {
	src := `
int main() {
    int n = 10;
#pragma omp parallel for
    for (int i = 0; ; i++) {
        if (i >= n) break;
    }
    return 0;
}
`
	res := compileOMP(t, src)
	if res.OK {
		t.Fatal("non-canonical loop compiled under work-sharing directive")
	}
}

func TestAtomicBodyValidation(t *testing.T) {
	good := `
int main() {
    int count = 0;
#pragma omp parallel
    {
#pragma omp atomic
        count += 1;
    }
    return 0;
}
`
	if res := compileOMP(t, good); !res.OK {
		t.Fatalf("valid atomic rejected:\n%s", res.Stderr)
	}
	bad := strings.Replace(good, "count += 1;", "if (count) { count += 1; }", 1)
	if res := compileOMP(t, bad); res.OK {
		t.Fatal("atomic over if statement compiled")
	}
}

func TestImplicitDeclPersonalities(t *testing.T) {
	src := `
#include <stdio.h>
int main() {
    int x = compute_something(42);
    printf("%d\n", x);
    return 0;
}
`
	// nvc model: hard error.
	if res := NVCSim().Compile("t.c", src, testlang.LangC); res.OK {
		t.Fatal("nvc personality accepted implicit function declaration")
	}
	// clang model: warning only; compiles.
	res := ClangSim().Compile("t.c", src, testlang.LangC)
	if !res.OK {
		t.Fatalf("clang personality rejected implicit declaration:\n%s", res.Stderr)
	}
	if !strings.Contains(res.Stderr, "implicit declaration") {
		t.Fatalf("expected warning, stderr = %q", res.Stderr)
	}
}

func TestUnsupportedFeatureGate(t *testing.T) {
	src := `
int main() {
    double a[64][64];
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            a[i][j] = i + j;
#pragma acc parallel loop tile(8, 8) copy(a)
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 64; j++) {
            a[i][j] = a[i][j] * 2.0;
        }
    }
    return 0;
}
`
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("tile clause compiled under nvc personality (configured unsupported)")
	}
	if !strings.Contains(res.Stderr, "tile") {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestMissingMainRejected(t *testing.T) {
	src := `int helper(int x) { return x; }`
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("file without main linked")
	}
	if !strings.Contains(res.Stderr, "main") {
		t.Fatalf("stderr = %s", res.Stderr)
	}
}

func TestWrongArgCount(t *testing.T) {
	src := `
int helper(int a, int b) { return a + b; }
int main() { return helper(1); }
`
	res := compileACC(t, src)
	if res.OK {
		t.Fatal("wrong arg count compiled")
	}
}

func TestRedefinition(t *testing.T) {
	src := `
int main() {
    int x = 1;
    int x = 2;
    return x;
}
`
	if res := compileACC(t, src); res.OK {
		t.Fatal("redefinition compiled")
	}
}

func TestShadowingAllowed(t *testing.T) {
	src := `
int main() {
    int x = 1;
    { int x = 2; x++; }
    for (int x = 0; x < 3; x++) { ; }
    return 0;
}
`
	if res := compileACC(t, src); !res.OK {
		t.Fatalf("legal shadowing rejected:\n%s", res.Stderr)
	}
}

// TestSubscriptNonArray: a subscript needs an array or a pointer, and
// indexing a declared array strips its dimension before any pointer
// level of its element type. Both compilers agree on every row.
func TestSubscriptNonArray(t *testing.T) {
	for _, row := range []struct {
		name, body string
		ok         bool
	}{
		{"scalar", "int x = 1;\n    return x[0];", false},
		{"array-of-pointers", "double a[2];\n    double *rows[2];\n    rows[0] = a;\n    return rows[0][1];", true},
		{"pointer-to-pointer", "double **pp = 0;\n    return pp[0][1];", true},
		{"2d-array", "int m[2][3];\n    return m[1][2];", true},
		{"2d-array-overindexed", "int m[2][3];\n    return m[1][2][0];", false},
	} {
		src := "int main() {\n    " + row.body + "\n}\n"
		for _, compile := range []func(*testing.T, string) *Result{compileACC, compileOMP} {
			res := compile(t, src)
			if res.OK != row.ok {
				t.Errorf("%s: compiled %v, want %v:\n%s", row.name, res.OK, row.ok, res.Stderr)
			}
			if !row.ok && !strings.Contains(res.Stderr, "subscripted value is not an array or pointer") {
				t.Errorf("%s: rejected without the subscript diagnostic:\n%s", row.name, res.Stderr)
			}
		}
	}
}

func TestAssignToNonLvalue(t *testing.T) {
	src := `
int main() {
    int x = 1;
    (x + 1) = 2;
    return 0;
}
`
	if res := compileACC(t, src); res.OK {
		t.Fatal("assignment to rvalue compiled")
	}
}

func TestVersionGateFutureDirective(t *testing.T) {
	// "loop" exists in OpenMP 5.0 only; our table omits it entirely, so
	// it surfaces as an unknown directive — matching a 4.5 compiler.
	src := `
int main() {
    int s = 0;
#pragma omp loop reduction(+:s)
    for (int i = 0; i < 4; i++) { s += i; }
    return 0;
}
`
	res := compileOMP(t, src)
	if res.OK {
		t.Fatal("OpenMP 5.0 'loop' directive accepted by 4.5 compiler model")
	}
}

func TestDiagnosticFormat(t *testing.T) {
	src := strings.Replace(validACC, "int main()\n{", "int main()\n", 1)
	res := compileACC(t, src)
	if !strings.Contains(res.Stderr, "nvc test.c:") {
		t.Fatalf("diagnostics lack compiler/file prefix:\n%s", res.Stderr)
	}
	if !strings.Contains(res.Stderr, "error(s) generated") {
		t.Fatalf("missing error summary:\n%s", res.Stderr)
	}
}

func TestCompileFortranValid(t *testing.T) {
	src := `program t
    implicit none
    integer :: i, s
    s = 0
    !$acc parallel loop reduction(+:s)
    do i = 1, 100
        s = s + i
    end do
    if (s /= 5050) then
        stop 1
    end if
end program t
`
	res := NVCSim().Compile("t.f90", src, testlang.LangFortran)
	if !res.OK {
		t.Fatalf("valid Fortran rejected:\n%s", res.Stderr)
	}
	if res.Object != nil {
		t.Fatal("Fortran must not produce an executable object in the simulation")
	}
}

func TestCompileFortranBroken(t *testing.T) {
	src := "program t\n    implicit none\n    x = 1\nend program t\n"
	res := NVCSim().Compile("t.f90", src, testlang.LangFortran)
	if res.OK {
		t.Fatal("Fortran with undeclared variable compiled")
	}
}

func TestBalancedBlockRemovalStillCompiles(t *testing.T) {
	// The hard negative-probing case: removing a balanced trailing
	// check block leaves a compilable program.
	src := strings.Replace(validACC, `    if (sum - expect > 1e-6 || expect - sum > 1e-6) {
        printf("FAIL\n");
        return 1;
    }
`, "", 1)
	res := compileACC(t, src)
	if !res.OK {
		t.Fatalf("balanced block removal should compile:\n%s", res.Stderr)
	}
}

func TestWarningsDoNotFailCompile(t *testing.T) {
	src := `
#include <stdio.h>
int main() {
#pragma pack(4)
    printf("ok\n");
    return 0;
}
`
	res := compileOMP(t, src)
	if !res.OK {
		t.Fatalf("unknown foreign pragma should only warn:\n%s", res.Stderr)
	}
	if !strings.Contains(res.Stderr, "warning") {
		t.Fatalf("expected a warning, got %q", res.Stderr)
	}
}
