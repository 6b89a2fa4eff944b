package ring

import "encoding/binary"

// This file is the ring multiply-accumulate behind ScaleAccumBytes: the
// one kernel both halves of a query run, the NDP over ciphertext rows and
// the OTP walk over pad keystream (paper §V-C). On amd64 with AVX2 the
// 8-, 16- and 32-bit lanes run in accum_amd64.s, eight lanes per step,
// gated on CPUID the way otp's AES-NI and field's MULX kernels are; the
// lanes left over and every other CPU run the Go loops below. Both compute
// the same bits for any weight and any dst: only the low 32 bits of the
// weight and of each product reach a lane of 32 bits or fewer.

// useAccumAsm is true when the assembly kernel is available and the CPU
// supports it. Tests flip it to run both arms.
var useAccumAsm = supportsAccumAsm()

// accumAsmLanes is the assembly's step: two vectors of four lanes.
const accumAsmLanes = 8

// scaleAccumAsm runs the assembly over every whole step of dst and
// returns the number of lanes it consumed; eb is 1, 2 or 4.
func scaleAccumAsm(dst []uint64, w uint64, data []byte, eb int) int {
	n := len(dst) &^ (accumAsmLanes - 1)
	if n == 0 {
		return 0
	}
	switch eb {
	case 1:
		scaleAccum8AVX2(&dst[0], w, &data[0], n)
	case 2:
		scaleAccum16AVX2(&dst[0], w, &data[0], n)
	case 4:
		scaleAccum32AVX2(&dst[0], w, &data[0], n)
	}
	return n
}

// scaleAccumBytesGeneric is the portable kernel and the assembly's tail:
// dst[j] = (dst[j] + w·lane_j(data)) & mask over eb-byte little-endian
// lanes. len(data) must equal len(dst)·eb.
func scaleAccumBytesGeneric(dst []uint64, w uint64, data []byte, eb int, mask uint64) {
	switch eb {
	case 1:
		for j := range dst {
			dst[j] = (dst[j] + w*uint64(data[j])) & mask
		}
	case 2:
		for j := range dst {
			dst[j] = (dst[j] + w*uint64(binary.LittleEndian.Uint16(data[j*2:]))) & mask
		}
	case 4:
		// One 64-bit load feeds two lanes.
		j := 0
		for ; j+1 < len(dst); j += 2 {
			e := binary.LittleEndian.Uint64(data[j*4:])
			dst[j] = (dst[j] + w*(e&0xFFFFFFFF)) & mask
			dst[j+1] = (dst[j+1] + w*(e>>32)) & mask
		}
		for ; j < len(dst); j++ {
			dst[j] = (dst[j] + w*uint64(binary.LittleEndian.Uint32(data[j*4:]))) & mask
		}
	case 8:
		for j := range dst {
			dst[j] = (dst[j] + w*binary.LittleEndian.Uint64(data[j*8:])) & mask
		}
	}
}
