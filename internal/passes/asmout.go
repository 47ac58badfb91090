package passes

import (
	"fmt"
	"os"

	"mao/internal/pass"
)

func init() {
	pass.Register(func() pass.Pass { return &asmOut{base{"ASM", "emit the unit as textual assembly"}} })
}

// asmOut is the assembly-emission pass, invoked like the original:
//
//	--mao=REDTEST:ASM=o[out.s]
//
// The o option names the output file ("-" or absent = stdout). As in
// the paper, analysis-only pipelines simply omit the pass.
type asmOut struct{ base }

func (p *asmOut) RunUnit(ctx *pass.Ctx) (bool, error) {
	path := ctx.Opts.String("o", "-")
	if path == "-" {
		_, err := ctx.Unit.WriteTo(os.Stdout)
		return false, err
	}
	f, err := os.Create(path)
	if err != nil {
		return false, fmt.Errorf("ASM: %w", err)
	}
	defer f.Close()
	if _, err := ctx.Unit.WriteTo(f); err != nil {
		return false, err
	}
	ctx.Trace(1, "wrote %s", path)
	return false, f.Sync()
}
