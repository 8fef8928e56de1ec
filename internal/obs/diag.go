package obs

import (
	"fmt"
	"io"
	"runtime"
)

// DumpDiagnostics writes a point-in-time diagnostic report to w: a tool
// header, caller-provided status lines, then every goroutine's stack.
// It is the body of the SIGQUIT handler in cmd/experiments and
// deliberately never exits — operators can sample a live run repeatedly
// without disturbing it.
func DumpDiagnostics(w io.Writer, tool string, lines []string) {
	fmt.Fprintf(w, "=== %s diagnostics (SIGQUIT) ===\n", tool)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	fmt.Fprintf(w, "--- goroutine stacks ---\n%s=== end diagnostics ===\n", buf)
}
