package otp

import (
	"flag"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// ringAccumAsm is package ring's switch between its AVX2 multiply-accumulate
// and the Go loops.
//
//go:linkname ringAccumAsm secndp/internal/ring.useAccumAsm
var ringAccumAsm bool

// vaesAtInit is the AES arm the package selected before any test ran.
var vaesAtInit = useVAES

// TestMain runs every test of the package once per kernel arm the CPU
// has: first on the arms the package selected, then — on a CPU with
// ring's AVX2 multiply-accumulate — on ring's Go loops, then — on a VAES
// CPU — on the eight-way AES-NI keystream. So every oracle here passes on
// both AES arms and both accumulate arms. Fuzzing and benchmark runs
// (-fuzz, -bench) take the first run only, so they report one set of
// results per name; FuzzKeystreamArms flips the AES arm itself.
func TestMain(m *testing.M) {
	code := m.Run()
	if flag.Lookup("test.fuzz").Value.String() != "" || flag.Lookup("test.bench").Value.String() != "" {
		os.Exit(code)
	}
	if code == 0 && ringAccumAsm {
		ringAccumAsm = false
		code = m.Run()
		ringAccumAsm = true
	}
	if code == 0 && useVAES {
		useVAES = false
		code = m.Run()
		useVAES = true
	}
	os.Exit(code)
}
