//go:build !amd64

package otp

// supportsNativeCTR and supportsVAES report false where no native
// keystream assembly exists; every caller then takes the cipher.NewCTR
// path, which has its own pipelined assembly on the architectures that
// matter (arm64).
func supportsNativeCTR() bool { return false }

func supportsVAES() bool { return false }

func ctrKeystream(rk *byte, hi, ctr uint64, dst *byte, nblocks int) {
	panic("otp: native CTR keystream is not available on this architecture")
}

func encryptBlocks(rk *byte, src *byte, dst *byte, nblocks int) {
	panic("otp: native block encryption is not available on this architecture")
}
