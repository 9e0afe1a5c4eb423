// AVX2+FMA microkernel for batched MLP inference. See gemm_amd64.go for the
// Go-level contracts and ForwardBatchFast in nn.go for the caller.

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaDot4x2(w0, w1, x0, x1, x2, x3 *float64, steps *int32, nsteps int, sums *[8]float64)
//
// Eight YMM accumulators hold the 2x4 (neuron x sample) tile, four float64
// lanes each; every loop iteration takes the next step's element offset from
// steps, loads 4 elements of both weight rows and all four activation rows
// there and issues 8 FMAs (32 multiply-adds). The n%4 tail is left to the Go
// caller.
TEXT ·fmaDot4x2(SB), NOSPLIT, $0-72
	MOVQ w0+0(FP), DI
	MOVQ w1+8(FP), SI
	MOVQ x0+16(FP), R8
	MOVQ x1+24(FP), R9
	MOVQ x2+32(FP), R10
	MOVQ x3+40(FP), R11
	MOVQ steps+48(FP), BX
	MOVQ nsteps+56(FP), CX
	MOVQ sums+64(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    reduce

loop:
	MOVLQSX (BX), AX             // i: element offset of this 4-wide step
	VMOVUPD (DI)(AX*8), Y8       // w0[i:i+4]
	VMOVUPD (SI)(AX*8), Y9       // w1[i:i+4]
	VMOVUPD (R8)(AX*8), Y10      // x0[i:i+4]
	VFMADD231PD Y8, Y10, Y0      // Y0 += w0*x0
	VFMADD231PD Y9, Y10, Y1      // Y1 += w1*x0
	VMOVUPD (R9)(AX*8), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VMOVUPD (R10)(AX*8), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VMOVUPD (R11)(AX*8), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ $4, BX
	DECQ CX
	JNZ  loop

reduce:
	// Horizontal-reduce each accumulator into sums[0..7]: fold the high
	// 128-bit half onto the low one, then HADDPD the remaining pair.
	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	VMOVSD X0, (DX)

	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	VMOVSD X1, 8(DX)

	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VHADDPD X2, X2, X2
	VMOVSD X2, 16(DX)

	VEXTRACTF128 $1, Y3, X8
	VADDPD X8, X3, X3
	VHADDPD X3, X3, X3
	VMOVSD X3, 24(DX)

	VEXTRACTF128 $1, Y4, X8
	VADDPD X8, X4, X4
	VHADDPD X4, X4, X4
	VMOVSD X4, 32(DX)

	VEXTRACTF128 $1, Y5, X8
	VADDPD X8, X5, X5
	VHADDPD X5, X5, X5
	VMOVSD X5, 40(DX)

	VEXTRACTF128 $1, Y6, X8
	VADDPD X8, X6, X6
	VHADDPD X6, X6, X6
	VMOVSD X6, 48(DX)

	VEXTRACTF128 $1, Y7, X8
	VADDPD X8, X7, X7
	VHADDPD X7, X7, X7
	VMOVSD X7, 56(DX)

	VZEROUPPER
	RET
