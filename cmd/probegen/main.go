// Command probegen generates a negative-probing suite and writes the
// files to a directory, with a manifest recording each file's
// ground-truth issue and the exact mutation applied. Useful for
// inspecting what the experiments actually judge, and for feeding the
// suite to external tools.
//
// Usage:
//
//	probegen -dialect acc|omp -part 1|2 [-scale K] [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	llm4vv "repro"
	"repro/internal/spec"
)

type manifestEntry struct {
	Name     string `json:"name"`
	Issue    int    `json:"issue"`
	IssueTxt string `json:"issue_description"`
	Valid    bool   `json:"valid"`
	Template string `json:"template"`
	Mutation string `json:"mutation"`
	Language string `json:"language"`
}

func main() {
	dialectFlag := flag.String("dialect", "acc", "acc or omp")
	part := flag.Int("part", 2, "paper experiment part (1 or 2)")
	scale := flag.Int("scale", 1, "divide suite sizes by this factor")
	out := flag.String("out", "probed-suite", "output directory")
	flag.Parse()

	var d spec.Dialect
	switch *dialectFlag {
	case "acc":
		d = spec.OpenACC
	case "omp":
		d = spec.OpenMP
	default:
		fmt.Fprintln(os.Stderr, "probegen: -dialect must be acc or omp")
		os.Exit(2)
	}
	var suiteSpec llm4vv.SuiteSpec
	switch *part {
	case 1:
		suiteSpec = llm4vv.PartOneSpec(d)
	case 2:
		suiteSpec = llm4vv.PartTwoSpec(d)
	default:
		fmt.Fprintln(os.Stderr, "probegen: -part must be 1 or 2")
		os.Exit(2)
	}
	suiteSpec = suiteSpec.Scaled(*scale)

	suite, err := llm4vv.BuildSuite(suiteSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probegen:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "probegen:", err)
		os.Exit(1)
	}
	manifest := make([]manifestEntry, 0, len(suite))
	for _, pf := range suite {
		path := filepath.Join(*out, pf.Name)
		if err := os.WriteFile(path, []byte(pf.Source), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "probegen:", err)
			os.Exit(1)
		}
		manifest = append(manifest, manifestEntry{
			Name:     pf.Name,
			Issue:    int(pf.Issue),
			IssueTxt: pf.Issue.Description(d),
			Valid:    pf.Issue.Valid(),
			Template: pf.Template,
			Mutation: pf.Mutation,
			Language: pf.Lang.String(),
		})
	}
	data, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "probegen:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(filepath.Join(*out, "manifest.json"), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "probegen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d files + manifest.json to %s\n", len(suite), *out)
}
