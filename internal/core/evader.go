// Package core implements the paper's primary contribution: the system of
// four adversarial games matching program classifiers against evaders, plus
// the experiment harnesses that regenerate every figure of the evaluation
// (embedding comparisons, model comparisons, evasion measurement,
// normalization, class-count sweeps, performance, obfuscator detection and
// the malware case study).
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progcache"
	"repro/internal/srcobf"
)

// EvaderNames lists the nine evaders of Figure 4, in the paper's order:
// O-LLVM passes, the combined ollvm, clang -O3, Zhang et al.'s source
// strategies, and the passive evader ("none").
func EvaderNames() []string {
	return []string{"bcf", "fla", "sub", "ollvm", "O3", "rs", "mcmc", "drlsg", "none"}
}

// TransformNames lists every transformation Transform accepts: the nine
// evaders plus the remaining optimization levels and the genetic strategy.
func TransformNames() []string {
	return append(EvaderNames(), "O0", "O1", "O2", "mem2reg", "ga")
}

// ValidateEvader checks name against the transformation registry up front,
// so a typo fails with a clear error instead of surfacing as a per-sample
// failure from deep inside a featurize worker. The empty string is allowed
// (it means the passive evader).
func ValidateEvader(name string) error {
	if name == "" {
		return nil
	}
	valid := TransformNames()
	for _, v := range valid {
		if name == v {
			return nil
		}
	}
	sort.Strings(valid)
	return fmt.Errorf("core: unknown evader %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Transform compiles source code and applies the named evader
// transformation, returning the transformed module:
//
//	none                   identity (Game 0's passive evader)
//	O0/O1/O2/O3            compiler optimization pipelines
//	mem2reg                SSA promotion only
//	bcf/fla/sub/ollvm      O-LLVM-style IR obfuscations
//	rs/mcmc/drlsg/ga       Zhang-style source-level strategies
//
// The O0 compile of src is served from the process-wide progcache; every
// branch that mutates the module works on a private copy thawed from the
// cached flat view (progcache.CompileThaw), so repeated transforms of the
// same source skip the front end and pay only an arena rebuild.
func Transform(src, name string, rng *rand.Rand) (*ir.Module, error) {
	return transformFrom(progcache.CompileThaw, src, name, rng)
}

// TransformUntrusted is Transform with the O0 compile drawn from
// progcache's bounded untrusted tier — the variant for client-supplied
// sources on the serving path, which must not pin entries in the
// process-wide cache.
func TransformUntrusted(src, name string, rng *rand.Rand) (*ir.Module, error) {
	return transformFrom(progcache.CompileThawUntrusted, src, name, rng)
}

func transformFrom(compile func(src, name string) (*ir.Module, error), src, name string, rng *rand.Rand) (*ir.Module, error) {
	switch name {
	case "none", "", "O0":
		return compile(src, "prog")
	case "O1", "O2", "O3":
		m, err := compile(src, "prog")
		if err != nil {
			return nil, err
		}
		lvl, _ := passes.ParseLevel(name)
		if err := passes.Optimize(m, lvl); err != nil {
			return nil, err
		}
		return m, nil
	case "mem2reg":
		m, err := compile(src, "prog")
		if err != nil {
			return nil, err
		}
		if _, err := passes.RunPass(m, "mem2reg"); err != nil {
			return nil, err
		}
		return m, nil
	case "bcf", "fla", "sub", "ollvm":
		m, err := compile(src, "prog")
		if err != nil {
			return nil, err
		}
		if err := obfus.Apply(m, name, rng); err != nil {
			return nil, err
		}
		return m, nil
	case "rs", "mcmc", "drlsg", "ga":
		out, err := srcobf.TransformSource(src, name, rng)
		if err != nil {
			return nil, err
		}
		// The strategy output is seed-dependent and essentially unique, so
		// caching it would only grow the cache; compile it directly.
		return minic.CompileSource(out, "prog")
	}
	return nil, fmt.Errorf("core: unknown transformation %q", name)
}

// Normalize applies the classifier-side code normalizer of Game 3 (the
// paper evaluates clang -O3 and -O0).
func Normalize(m *ir.Module, level passes.Level) error {
	return passes.Optimize(m, level)
}
