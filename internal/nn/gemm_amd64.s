// AVX2+FMA microkernels for batched MLP inference: the 4x2 tile, and one row
// against the neurons a caller selects. See gemm_amd64.go for the Go-level
// contracts and ForwardBatchFast in nn.go for the callers.

#include "textflag.h"

// REDUCE stores the horizontal sum of the four lanes of acc (xacc is its low
// half) at dst, in the one order both dot kernels use: fold the high 128-bit
// half onto the low one, (l0+l2, l1+l3), then add that pair. X8 is scratch.
#define REDUCE(acc, xacc, dst) \
	VEXTRACTF128 $1, acc, X8; \
	VADDPD X8, xacc, xacc; \
	VHADDPD xacc, xacc, xacc; \
	VMOVSD xacc, dst

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
	REDUCE(Y0, X0, (DX))
	REDUCE(Y1, X1, 8(DX))
	REDUCE(Y2, X2, 16(DX))
	REDUCE(Y3, X3, 24(DX))
	REDUCE(Y4, X4, 32(DX))
	REDUCE(Y5, X5, 40(DX))
	REDUCE(Y6, X6, 48(DX))
	REDUCE(Y7, X7, 56(DX))
	VZEROUPPER
	RET

// func fmaDotOuts(x, w *float64, stride, nsteps int, outs *int, n int, sums *[8]float64)
//
// The listed rows are taken two at a time, so two chains are in flight and a
// loaded step of x serves both; an odd last row goes alone. Each row's
// accumulator is fmaDot4x2's: four lanes from +0, one VFMADD231PD per step,
// then REDUCE.
TEXT ·fmaDotOuts(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ stride+16(FP), R8
	SHLQ $3, R8                  // bytes between two neurons' rows
	MOVQ nsteps+24(FP), R9
	MOVQ outs+32(FP), BX
	MOVQ n+40(FP), CX
	MOVQ sums+48(FP), DX

pair:
	CMPQ CX, $2
	JLT  single
	MOVQ (BX), R10
	IMULQ R8, R10
	ADDQ DI, R10                 // row of outs[k]
	MOVQ 8(BX), R11
	IMULQ R8, R11
	ADDQ DI, R11                 // row of outs[k+1]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX                  // byte offset of the step
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   pairdone

pairloop:
	VMOVUPD (SI)(AX*1), Y2
	VFMADD231PD (R10)(AX*1), Y2, Y0
	VFMADD231PD (R11)(AX*1), Y2, Y1
	ADDQ $32, AX
	DECQ R12
	JNZ  pairloop

pairdone:
	REDUCE(Y0, X0, (DX))
	REDUCE(Y1, X1, 8(DX))
	ADDQ $16, BX
	ADDQ $16, DX
	SUBQ $2, CX
	JMP  pair

single:
	TESTQ CX, CX
	JZ   done
	MOVQ (BX), R10
	IMULQ R8, R10
	ADDQ DI, R10
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   singledone

singleloop:
	VMOVUPD (SI)(AX*1), Y2
	VFMADD231PD (R10)(AX*1), Y2, Y0
	ADDQ $32, AX
	DECQ R12
	JNZ  singleloop

singledone:
	REDUCE(Y0, X0, (DX))

done:
	VZEROUPPER
	RET
