package check

import (
	"fmt"
	"io"
	"os"

	"mao/internal/pass"
)

func init() {
	pass.Register(func() pass.Pass { return &checkPass{} })
}

// checkPass exposes the static checker as a registry pass, so lint
// runs compose with optimization pipelines in the paper's command-line
// style:
//
//	mao --mao=CHECK:REDTEST:CHECK=o[post.txt] in.s
//
// Options: o[path] writes diagnostics to the named file (default
// stderr), json renders them as JSON, fatal fails the pipeline when
// any error-severity diagnostic is present. Every diagnostic also
// counts toward the pass statistics under its rule ID.
type checkPass struct{}

func (p *checkPass) Name() string { return "CHECK" }

func (p *checkPass) Description() string {
	return "static verification & lint: run the rule catalog over the unit"
}

func (p *checkPass) RunUnit(ctx *pass.Ctx) (bool, error) {
	diags := CheckUnit(ctx.Unit)
	for _, d := range diags {
		ctx.Count(d.Rule, 1)
	}

	var w io.Writer = os.Stderr
	if path := ctx.Opts.String("o", ""); path != "" && path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return false, err
		}
		defer f.Close()
		w = f
	}
	var err error
	if ctx.Opts.Bool("json", false) {
		err = WriteJSON(w, diags)
	} else if len(diags) > 0 {
		err = WriteText(w, diags)
	}
	if err != nil {
		return false, err
	}

	if ctx.Opts.Bool("fatal", false) && MaxSeverity(diags) >= SevError {
		errors := 0
		for _, d := range diags {
			if d.Severity >= SevError {
				errors++
			}
		}
		return false, fmt.Errorf("%d error diagnostics", errors)
	}
	return false, nil
}
