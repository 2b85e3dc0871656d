// Package agent implements the paper's agent-based approach (§III-B):
// treating the judge as an agent whose environment tools — the
// compiler and the execution machine — are run on its behalf, with
// their outputs packaged into the prompt's tool-information block.
package agent

import (
	"repro/internal/compiler"
	"repro/internal/judge"
	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// Tools bundles the toolchain the agent runs for the judge.
type Tools struct {
	Personality *compiler.Personality
	MachineOpts machine.Options
}

// NewTools returns the standard toolchain for a dialect (nvc-model for
// OpenACC, clang-model for OpenMP).
func NewTools(d spec.Dialect) *Tools {
	return &Tools{Personality: compiler.ForDialect(d)}
}

// Outcome is the result of one tool gathering: the prompt-ready
// ToolInfo plus the raw stage results for pipeline accounting.
type Outcome struct {
	Info    judge.ToolInfo
	Compile *compiler.Result
	// Run is nil when compilation failed or the file is not executable
	// in the simulation (Fortran).
	Run *machine.Result
}

// CompilePassed reports whether the compile stage succeeded.
func (o *Outcome) CompilePassed() bool { return o.Compile != nil && o.Compile.OK }

// RunPassed reports whether the execution stage succeeded (exit 0).
func (o *Outcome) RunPassed() bool { return o.Run != nil && o.Run.ReturnCode == 0 }

// Gather compiles and (when possible) runs one file, producing the
// information block the agent-based prompts embed.
func (t *Tools) Gather(name, src string, lang testlang.Language) *Outcome {
	out := &Outcome{}
	out.Compile = t.Personality.Compile(name, src, lang)
	if out.Compile.OK && out.Compile.Object != nil {
		out.Run = machine.Run(out.Compile.Object, t.MachineOpts)
	}
	out.Info = Info(out.Compile, out.Run)
	return out
}

// Info packages a file's compile result and, when it ran, its
// execution result into the prompt's tool-information block. A nil
// run (compile failed, or nothing executable) leaves Ran false.
func Info(c *compiler.Result, r *machine.Result) judge.ToolInfo {
	info := judge.ToolInfo{}
	if c != nil {
		info.CompileRC = c.ReturnCode
		info.CompileStderr = c.Stderr
		info.CompileStdout = c.Stdout
	}
	if r != nil {
		info.Ran = true
		info.RunRC = r.ReturnCode
		info.RunStderr = r.Stderr
		info.RunStdout = r.Stdout
	}
	return info
}
