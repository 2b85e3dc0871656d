package compiler

import (
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/testlang"
)

func TestKindOfOpenACC(t *testing.T) {
	cases := []struct {
		name string
		want DirKind
	}{
		{"parallel", KindComputeBlock},
		{"kernels", KindComputeBlock},
		{"serial", KindComputeBlock},
		{"parallel loop", KindComputeLoop},
		{"kernels loop", KindComputeLoop},
		{"loop", KindLoop},
		{"data", KindData},
		{"enter data", KindEnterData},
		{"exit data", KindExitData},
		{"update", KindUpdate},
		{"atomic", KindAtomic},
		{"wait", KindNoop},
		{"routine", KindNoop},
	}
	for _, c := range cases {
		if got := kindOf(spec.OpenACC, c.name); got != c.want {
			t.Errorf("kindOf(ACC, %q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestKindOfOpenMP(t *testing.T) {
	cases := []struct {
		name string
		want DirKind
	}{
		{"parallel", KindHostParallel},
		{"parallel for", KindHostLoop},
		{"for", KindLoop},
		{"simd", KindLoop},
		{"distribute", KindLoop},
		{"target", KindComputeBlock},
		{"target teams", KindComputeBlock},
		{"target teams distribute parallel for", KindComputeLoop},
		{"teams distribute", KindComputeLoop},
		{"target data", KindData},
		{"target enter data", KindEnterData},
		{"target exit data", KindExitData},
		{"target update", KindUpdate},
		{"atomic", KindAtomic},
		{"critical", KindCritical},
		{"single", KindOnce},
		{"master", KindOnce},
		{"sections", KindInline},
		{"task", KindInline},
		{"barrier", KindNoop},
	}
	for _, c := range cases {
		if got := kindOf(spec.OpenMP, c.name); got != c.want {
			t.Errorf("kindOf(OMP, %q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIsDeviceClassification(t *testing.T) {
	if !KindComputeLoop.IsDevice(spec.OpenACC, "parallel loop") {
		t.Error("ACC parallel loop should be a device construct")
	}
	if KindHostLoop.IsDevice(spec.OpenMP, "parallel for") {
		t.Error("OMP parallel for is a host construct")
	}
	if !KindComputeLoop.IsDevice(spec.OpenMP, "target teams distribute parallel for") {
		t.Error("OMP target combined construct should be a device construct")
	}
	if !KindComputeBlock.IsDevice(spec.OpenMP, "teams") {
		t.Error("OMP teams executes in the device data environment")
	}
}

func TestClauseDataModes(t *testing.T) {
	cases := []struct {
		dir, clause string
		want        DataMode
		isData      bool
	}{
		{"data", "copyin", MCopyIn, true},
		{"data", "copyout", MCopyOut, true},
		{"data", "copy", MCopy, true},
		{"data", "create", MCreate, true},
		{"data", "present", MPresent, true},
		{"exit data", "delete", MDelete, true},
		{"update", "host", MUpdateHost, true},
		{"update", "self", MUpdateHost, true},
		{"update", "device", MUpdateDevice, true},
		{"target update", "to", MUpdateDevice, true},
		{"target update", "from", MUpdateHost, true},
		{"data", "no_create", MIgnore, true},
		{"host_data", "use_device", MIgnore, true},
		{"parallel", "num_gangs", 0, false},
		{"target", "device", 0, false}, // device(n) selects a device, moves nothing
	}
	for _, c := range cases {
		got, isData := clauseDataMode(spec.OpenACC, c.dir, c.clause)
		if isData != c.isData {
			t.Errorf("clauseDataMode(%s,%s) isData = %v, want %v", c.dir, c.clause, isData, c.isData)
			continue
		}
		if isData && got != c.want {
			t.Errorf("clauseDataMode(%s,%s) = %v, want %v", c.dir, c.clause, got, c.want)
		}
	}
}

func TestMapTypeModes(t *testing.T) {
	cases := map[string]DataMode{
		"to": MCopyIn, "from": MCopyOut, "tofrom": MCopy,
		"alloc": MCreate, "release": MDelete, "delete": MDelete,
	}
	for mt, want := range cases {
		if got := mapTypeMode(mt); got != want {
			t.Errorf("mapTypeMode(%q) = %v, want %v", mt, got, want)
		}
	}
}

func TestDataModeStrings(t *testing.T) {
	for _, m := range []DataMode{MCopyIn, MCopyOut, MCopy, MCreate, MPresent, MDelete, MUpdateHost, MUpdateDevice} {
		if m.String() == "?" || m.String() == "" {
			t.Errorf("DataMode %d has no name", m)
		}
	}
}

func TestPlanNumWorkersAndIf(t *testing.T) {
	src := `
int main() {
    int n = 100;
    int use_gpu = 1;
    int a[100];
#pragma acc parallel loop num_gangs(8) if(use_gpu) copy(a)
    for (int i = 0; i < n; i++) {
        a[i] = i;
    }
    return 0;
}
`
	res := NVCSim().Compile("t.c", src, testlang.LangC)
	if !res.OK {
		t.Fatalf("compile: %s", res.Stderr)
	}
	var plan *DirPlan
	for _, p := range res.Object.Plans {
		plan = p
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	if plan.NumWorkers == nil {
		t.Error("num_gangs not lowered to NumWorkers")
	}
	if plan.If == nil {
		t.Error("if clause not lowered")
	}
}

func TestPlanAtomicKinds(t *testing.T) {
	for _, kind := range []string{"read", "write", "update", "capture"} {
		body := "x += 1;"
		if kind == "read" || kind == "capture" {
			body = "v = x;"
		}
		if kind == "write" {
			body = "x = 1;"
		}
		src := `
int main() {
    int x = 0, v = 0;
#pragma omp parallel
    {
#pragma omp atomic ` + kind + `
        ` + body + `
    }
    return v >= 0 ? 0 : 1;
}
`
		res := ClangSim().Compile("t.c", src, testlang.LangC)
		if !res.OK {
			t.Fatalf("atomic %s: %s", kind, res.Stderr)
		}
		found := false
		for ds, p := range res.Object.Plans {
			if ds.Dir.Name == "atomic" {
				found = true
				if p.AtomicKind != kind {
					t.Errorf("atomic %s lowered as %q", kind, p.AtomicKind)
				}
			}
		}
		if !found {
			t.Fatalf("atomic %s: plan missing", kind)
		}
	}
}

func TestFeatureDiagsListAllUses(t *testing.T) {
	src := `
int main() {
    int a[8];
    int b[8];
#pragma acc data no_create(a) attach(b)
    {
        a[0] = 1;
    }
    return 0;
}
`
	res := NVCSim().Compile("t.c", src, testlang.LangC)
	if res.OK {
		t.Fatal("unsupported clauses compiled")
	}
	if !strings.Contains(res.Stderr, "no_create") || !strings.Contains(res.Stderr, "attach") {
		t.Fatalf("stderr should name both unsupported clauses:\n%s", res.Stderr)
	}
}

func TestReferencePersonalityAcceptsEverything(t *testing.T) {
	src := `
int main() {
    double a[16][16];
    for (int i = 0; i < 16; i++)
        for (int j = 0; j < 16; j++)
            a[i][j] = i;
#pragma acc parallel loop tile(4, 4) copy(a)
    for (int i = 0; i < 16; i++) {
        for (int j = 0; j < 16; j++) {
            a[i][j] = a[i][j] + 1.0;
        }
    }
    return 0;
}
`
	if res := Reference(spec.OpenACC).Compile("t.c", src, testlang.LangC); !res.OK {
		t.Fatalf("reference personality rejected tile:\n%s", res.Stderr)
	}
	if res := NVCSim().Compile("t.c", src, testlang.LangC); res.OK {
		t.Fatal("nvc personality accepted tile")
	}
}
