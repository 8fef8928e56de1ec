//go:build invariants

package sim

// invariantsTagEnabled: this is the `invariants` debug build — every
// system runs with mid-run periodic invariant checking armed, so the
// whole test suite doubles as a self-verification sweep (CI's invariants
// job runs `go test -tags=invariants ./...`).
const invariantsTagEnabled = true
