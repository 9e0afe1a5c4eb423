// AVX2 kernels for layer 0 stored input-major (store.go): one listed input's
// weights to four neighbouring neurons are one 256-bit load, so a pass over the
// input list advances every neuron's sum at once, and the SGD step of a listed
// input is one contiguous row. Below them, the backward pass's vector loops
// (spmvSteps for the layer-0 update's prologue, axpy and sigmoidGrad for the
// layers past it), each operation rounded as its scalar loop rounds it. See
// gemm_amd64.go for the Go-level contracts.
//
// All three keep up to twelve groups of four neurons in Y0..Y11 and walk a list
// of (index, value) entries, the entry's value broadcast in Y15 and its row at
// w + index*stride. The forward kernels hold the sums and add to each group the
// value times the row's four weights: spmvExact multiplies, then adds (two
// roundings, the scalar loop's); spmvFused fuses (one rounding, fmaDot4x2's).
// spmvUpdate holds the steps and subtracts from the row's four weights the
// value times each group, the product rounded first. The loops are generated
// once per group count, so that a layer of 42 neurons is one pass with eleven
// registers and one of 15 a pass with four.

#include "textflag.h"

// LDn loads Y0..Yn-1 from (DX); STn(r) stores them at (r); ZRn zeroes them.
#define LD1 VMOVUPD (DX), Y0
#define LD2 LD1; VMOVUPD 32(DX), Y1
#define LD3 LD2; VMOVUPD 64(DX), Y2
#define LD4 LD3; VMOVUPD 96(DX), Y3
#define LD5 LD4; VMOVUPD 128(DX), Y4
#define LD6 LD5; VMOVUPD 160(DX), Y5
#define LD7 LD6; VMOVUPD 192(DX), Y6
#define LD8 LD7; VMOVUPD 224(DX), Y7
#define LD9 LD8; VMOVUPD 256(DX), Y8
#define LD10 LD9; VMOVUPD 288(DX), Y9
#define LD11 LD10; VMOVUPD 320(DX), Y10
#define LD12 LD11; VMOVUPD 352(DX), Y11

#define ST1(r) VMOVUPD Y0, (r)
#define ST2(r) ST1(r); VMOVUPD Y1, 32(r)
#define ST3(r) ST2(r); VMOVUPD Y2, 64(r)
#define ST4(r) ST3(r); VMOVUPD Y3, 96(r)
#define ST5(r) ST4(r); VMOVUPD Y4, 128(r)
#define ST6(r) ST5(r); VMOVUPD Y5, 160(r)
#define ST7(r) ST6(r); VMOVUPD Y6, 192(r)
#define ST8(r) ST7(r); VMOVUPD Y7, 224(r)
#define ST9(r) ST8(r); VMOVUPD Y8, 256(r)
#define ST10(r) ST9(r); VMOVUPD Y9, 288(r)
#define ST11(r) ST10(r); VMOVUPD Y10, 320(r)
#define ST12(r) ST11(r); VMOVUPD Y11, 352(r)

#define ZR1 VXORPD Y0, Y0, Y0
#define ZR2 ZR1; VXORPD Y1, Y1, Y1
#define ZR3 ZR2; VXORPD Y2, Y2, Y2
#define ZR4 ZR3; VXORPD Y3, Y3, Y3
#define ZR5 ZR4; VXORPD Y4, Y4, Y4
#define ZR6 ZR5; VXORPD Y5, Y5, Y5
#define ZR7 ZR6; VXORPD Y6, Y6, Y6
#define ZR8 ZR7; VXORPD Y7, Y7, Y7
#define ZR9 ZR8; VXORPD Y8, Y8, Y8
#define ZR10 ZR9; VXORPD Y9, Y9, Y9
#define ZR11 ZR10; VXORPD Y10, Y10, Y10
#define ZR12 ZR11; VXORPD Y11, Y11, Y11

// XTn is one entry's exact term on n accumulators: acc = acc + w*v, the
// product rounded before the sum.
#define XT(off, acc) VMULPD off(SI)(AX*1), Y15, Y14; VADDPD Y14, acc, acc
#define XT1 XT(0, Y0)
#define XT2 XT1; XT(32, Y1)
#define XT3 XT2; XT(64, Y2)
#define XT4 XT3; XT(96, Y3)
#define XT5 XT4; XT(128, Y4)
#define XT6 XT5; XT(160, Y5)
#define XT7 XT6; XT(192, Y6)
#define XT8 XT7; XT(224, Y7)
#define XT9 XT8; XT(256, Y8)
#define XT10 XT9; XT(288, Y9)
#define XT11 XT10; XT(320, Y10)
#define XT12 XT11; XT(352, Y11)

// FTn is one entry's fused term on n accumulators.
#define FT(off, acc) VFMADD231PD off(SI)(AX*1), Y15, acc
#define FT1 FT(0, Y0)
#define FT2 FT1; FT(32, Y1)
#define FT3 FT2; FT(64, Y2)
#define FT4 FT3; FT(96, Y3)
#define FT5 FT4; FT(128, Y4)
#define FT6 FT5; FT(160, Y5)
#define FT7 FT6; FT(192, Y6)
#define FT8 FT7; FT(224, Y7)
#define FT9 FT8; FT(256, Y8)
#define FT10 FT9; FT(288, Y9)
#define FT11 FT10; FT(320, Y10)
#define FT12 FT11; FT(352, Y11)

// UTn is one entry's step on n groups of its row: w = w - step*v, the product
// rounded before the difference.
#define UT(off, step) VMULPD step, Y15, Y14; VMOVUPD off(SI)(AX*1), Y13; VSUBPD Y14, Y13, Y13; VMOVUPD Y13, off(SI)(AX*1)
#define UT1 UT(0, Y0)
#define UT2 UT1; UT(32, Y1)
#define UT3 UT2; UT(64, Y2)
#define UT4 UT3; UT(96, Y3)
#define UT5 UT4; UT(128, Y4)
#define UT6 UT5; UT(160, Y5)
#define UT7 UT6; UT(192, Y6)
#define UT8 UT7; UT(224, Y7)
#define UT9 UT8; UT(256, Y8)
#define UT10 UT9; UT(288, Y9)
#define UT11 UT10; UT(320, Y10)
#define UT12 UT11; UT(352, Y11)

// ENTRIES walks CX entries at (BX) and (R11), applying terms to each: the
// index is checked against the row count in R9 (as unsigned, so a negative one
// fails too) and the walk stops at bad, with CX not yet zero and before the
// entry's terms, on one outside.
#define ENTRIES(terms, loop, bad) \
loop: \
	MOVL (BX), AX; \
	CMPQ AX, R9; \
	JAE  bad; \
	IMULQ R8, AX; \
	VBROADCASTSD (R11), Y15; \
	terms; \
	ADDQ $4, BX; \
	ADDQ $8, R11; \
	DECQ CX; \
	JNZ  loop

// EXACT is spmvExact for one group count.
#define EXACT(load, terms, store, entry, loop, out) \
entry: \
	load; \
	TESTQ CX, CX; \
	JZ   out; \
	ENTRIES(terms, loop, out); \
out: \
	store; \
	JMP  xdone

// func spmvExact(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool
TEXT ·spmvExact(SB), NOSPLIT, $0-73
	MOVQ z+0(FP), DI
	MOVQ b+8(FP), DX
	MOVQ w+16(FP), SI
	MOVQ stride+24(FP), R8
	SHLQ $3, R8                    // bytes between two inputs' rows
	MOVQ rows+32(FP), R9
	MOVQ groups+40(FP), R10
	MOVQ idx+48(FP), BX
	MOVQ val+56(FP), R11
	MOVQ n+64(FP), CX
	CMPQ R10, $11
	JEQ  x11
	CMPQ R10, $12
	JEQ  x12
	CMPQ R10, $10
	JEQ  x10
	CMPQ R10, $9
	JEQ  x9
	CMPQ R10, $8
	JEQ  x8
	CMPQ R10, $7
	JEQ  x7
	CMPQ R10, $6
	JEQ  x6
	CMPQ R10, $5
	JEQ  x5
	CMPQ R10, $4
	JEQ  x4
	CMPQ R10, $3
	JEQ  x3
	CMPQ R10, $2
	JEQ  x2
	EXACT(LD1, XT1, ST1(DI), x1, x1loop, x1out)
	EXACT(LD2, XT2, ST2(DI), x2, x2loop, x2out)
	EXACT(LD3, XT3, ST3(DI), x3, x3loop, x3out)
	EXACT(LD4, XT4, ST4(DI), x4, x4loop, x4out)
	EXACT(LD5, XT5, ST5(DI), x5, x5loop, x5out)
	EXACT(LD6, XT6, ST6(DI), x6, x6loop, x6out)
	EXACT(LD7, XT7, ST7(DI), x7, x7loop, x7out)
	EXACT(LD8, XT8, ST8(DI), x8, x8loop, x8out)
	EXACT(LD9, XT9, ST9(DI), x9, x9loop, x9out)
	EXACT(LD10, XT10, ST10(DI), x10, x10loop, x10out)
	EXACT(LD11, XT11, ST11(DI), x11, x11loop, x11out)
	EXACT(LD12, XT12, ST12(DI), x12, x12loop, x12out)
xdone:
	TESTQ CX, CX                   // entries left: the walk stopped at a bad index
	SETEQ ret+72(FP)
	VZEROUPPER
	RET

// func spmvFused(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, n, q int, bidx *int32, bval *float64, cnt *[4]int, lanes *[4][48]float64) bool
TEXT ·spmvFused(SB), NOSPLIT, $0-113

// FUSED is spmvFused's lane loop for one group count: for each of the four
// lanes, in order, the accumulators start at +0, take the lane's entries, and
// are stored in the lane's row of the scratch. DX and DI are the lane's index
// and value regions, R12 its entry count, R10 its scratch row, R13 counts the
// lanes left. (Defined inside the function because it names an argument: go
// vet reads q+72(FP) against the TEXT line above it.)
#define FUSED(zero, terms, store, entry, loop, out) \
entry: \
	zero; \
	MOVQ DX, BX; \
	MOVQ DI, R11; \
	MOVQ (R12), CX; \
	TESTQ CX, CX; \
	JZ   out; \
	ENTRIES(terms, loop, fbad); \
out: \
	store; \
	MOVQ q+72(FP), AX; \
	LEAQ (DX)(AX*4), DX; \
	LEAQ (DI)(AX*8), DI; \
	ADDQ $8, R12; \
	ADDQ $384, R10; \
	DECQ R13; \
	JNZ  entry; \
	JMP  combine

	// Bucket the list: entry e goes to slot lane*q + cnt[lane] of bidx and
	// bval, lane = idx[e] mod 4, so each lane keeps list order.
	MOVQ idx+48(FP), BX
	MOVQ val+56(FP), R11
	MOVQ n+64(FP), CX
	MOVQ q+72(FP), R13
	MOVQ bidx+80(FP), DX
	MOVQ bval+88(FP), DI
	MOVQ cnt+96(FP), R12
	MOVQ $0, (R12)
	MOVQ $0, 8(R12)
	MOVQ $0, 16(R12)
	MOVQ $0, 24(R12)
	TESTQ CX, CX
	JZ   bucketed

bucket:
	MOVL (BX), AX
	MOVQ AX, R10
	ANDQ $3, R10                   // lane
	MOVQ (R12)(R10*8), R9          // entries the lane holds so far
	CMPQ R9, R13
	JAE  fbad                      // a full lane: the list is not ascending
	INCQ (R12)(R10*8)
	IMULQ R13, R10
	ADDQ R9, R10                   // the entry's slot
	MOVL AX, (DX)(R10*4)
	MOVQ (R11), R9
	MOVQ R9, (DI)(R10*8)
	ADDQ $4, BX
	ADDQ $8, R11
	DECQ CX
	JNZ  bucket

bucketed:
	MOVQ w+16(FP), SI
	MOVQ stride+24(FP), R8
	SHLQ $3, R8
	MOVQ rows+32(FP), R9
	MOVQ lanes+104(FP), R10
	MOVQ $4, R13
	MOVQ groups+40(FP), AX
	CMPQ AX, $11
	JEQ  f11
	CMPQ AX, $12
	JEQ  f12
	CMPQ AX, $10
	JEQ  f10
	CMPQ AX, $9
	JEQ  f9
	CMPQ AX, $8
	JEQ  f8
	CMPQ AX, $7
	JEQ  f7
	CMPQ AX, $6
	JEQ  f6
	CMPQ AX, $5
	JEQ  f5
	CMPQ AX, $4
	JEQ  f4
	CMPQ AX, $3
	JEQ  f3
	CMPQ AX, $2
	JEQ  f2
	FUSED(ZR1, FT1, ST1(R10), f1, f1loop, f1out)
	FUSED(ZR2, FT2, ST2(R10), f2, f2loop, f2out)
	FUSED(ZR3, FT3, ST3(R10), f3, f3loop, f3out)
	FUSED(ZR4, FT4, ST4(R10), f4, f4loop, f4out)
	FUSED(ZR5, FT5, ST5(R10), f5, f5loop, f5out)
	FUSED(ZR6, FT6, ST6(R10), f6, f6loop, f6out)
	FUSED(ZR7, FT7, ST7(R10), f7, f7loop, f7out)
	FUSED(ZR8, FT8, ST8(R10), f8, f8loop, f8out)
	FUSED(ZR9, FT9, ST9(R10), f9, f9loop, f9out)
	FUSED(ZR10, FT10, ST10(R10), f10, f10loop, f10out)
	FUSED(ZR11, FT11, ST11(R10), f11, f11loop, f11out)
	FUSED(ZR12, FT12, ST12(R10), f12, f12loop, f12out)

combine:
	// z = b + ((l0+l2) + (l1+l3)), group by group: fmaDot4x2's reduction of
	// its four lanes, then the bias.
	MOVQ z+0(FP), DI
	MOVQ b+8(FP), DX
	MOVQ lanes+104(FP), R10
	MOVQ groups+40(FP), CX
cloop:
	VMOVUPD (R10), Y0
	VADDPD 768(R10), Y0, Y0        // l0 + l2
	VMOVUPD 384(R10), Y1
	VADDPD 1152(R10), Y1, Y1       // l1 + l3
	VADDPD Y1, Y0, Y0
	VADDPD (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, R10
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  cloop
	MOVB $1, ret+112(FP)
	VZEROUPPER
	RET

fbad:
	MOVB $0, ret+112(FP)
	VZEROUPPER
	RET

// UPDATE is spmvUpdate for one group count.
#define UPDATE(load, terms, entry, loop) \
entry: \
	load; \
	ENTRIES(terms, loop, udone); \
	JMP  udone

// func spmvUpdate(w, step *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool
TEXT ·spmvUpdate(SB), NOSPLIT, $0-65
	MOVQ w+0(FP), SI
	MOVQ step+8(FP), DX
	MOVQ stride+16(FP), R8
	SHLQ $3, R8
	MOVQ rows+24(FP), R9
	MOVQ groups+32(FP), R10
	MOVQ idx+40(FP), BX
	MOVQ val+48(FP), R11
	MOVQ n+56(FP), CX
	TESTQ CX, CX
	JZ   udone
	CMPQ R10, $11
	JEQ  u11
	CMPQ R10, $12
	JEQ  u12
	CMPQ R10, $10
	JEQ  u10
	CMPQ R10, $9
	JEQ  u9
	CMPQ R10, $8
	JEQ  u8
	CMPQ R10, $7
	JEQ  u7
	CMPQ R10, $6
	JEQ  u6
	CMPQ R10, $5
	JEQ  u5
	CMPQ R10, $4
	JEQ  u4
	CMPQ R10, $3
	JEQ  u3
	CMPQ R10, $2
	JEQ  u2
	UPDATE(LD1, UT1, u1, u1loop)
	UPDATE(LD2, UT2, u2, u2loop)
	UPDATE(LD3, UT3, u3, u3loop)
	UPDATE(LD4, UT4, u4, u4loop)
	UPDATE(LD5, UT5, u5, u5loop)
	UPDATE(LD6, UT6, u6, u6loop)
	UPDATE(LD7, UT7, u7, u7loop)
	UPDATE(LD8, UT8, u8, u8loop)
	UPDATE(LD9, UT9, u9, u9loop)
	UPDATE(LD10, UT10, u10, u10loop)
	UPDATE(LD11, UT11, u11, u11loop)
	UPDATE(LD12, UT12, u12, u12loop)
udone:
	TESTQ CX, CX                   // entries left: the walk stopped at a bad index
	SETEQ ret+64(FP)
	VZEROUPPER
	RET

// func spmvSteps(step, b, delta *float64, lr float64, groups int) int
//
// Per group of four: step = lr*delta; b - step where delta != 0, b where it is
// zero (VCMPPD's equal-ordered predicate: a NaN delta is not zero); and the
// zero deltas counted from the comparison's sign mask.
TEXT ·spmvSteps(SB), NOSPLIT, $0-48
	MOVQ step+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ delta+16(FP), DX
	VBROADCASTSD lr+24(FP), Y15
	MOVQ groups+32(FP), CX
	VXORPD Y14, Y14, Y14
	XORQ BX, BX

sloop:
	VMOVUPD (DX), Y0
	VMULPD Y0, Y15, Y1             // lr*delta
	VMOVUPD Y1, (DI)
	VCMPPD $0, Y14, Y0, Y2         // delta == 0
	VMOVUPD (SI), Y3
	VSUBPD Y1, Y3, Y4              // b - step
	VBLENDVPD Y2, Y3, Y4, Y4       // b where delta == 0
	VMOVUPD Y4, (SI)
	VMOVMSKPD Y2, AX
	POPCNTL AX, AX
	ADDQ AX, BX
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  sloop
	MOVQ BX, ret+40(FP)
	VZEROUPPER
	RET

// func axpy(y, x *float64, a float64, n int)
TEXT ·axpy(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD a+16(FP), Y15
	MOVQ n+24(FP), CX
	XORQ AX, AX

aloop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   atail                     // fewer than four left
	VMULPD (SI)(AX*8), Y15, Y0     // x*a, rounded
	VADDPD (DI)(AX*8), Y0, Y0      // y + that
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ DX, AX
	JMP  aloop

atail:
	CMPQ AX, CX
	JGE  adone
	VMULSD (SI)(AX*8), X15, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  atail

adone:
	VZEROUPPER
	RET

// func sigmoidGrad(d, y *float64, n int)
TEXT ·sigmoidGrad(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ $0x3ff0000000000000, AX   // 1.0
	MOVQ AX, X15
	VBROADCASTSD X15, Y15
	XORQ AX, AX

gloop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   gtail                     // fewer than four left
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD Y0, Y15, Y1             // 1 - y
	VMULPD Y1, Y0, Y1              // y * (1-y)
	VMULPD (DI)(AX*8), Y1, Y1      // d * that
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ DX, AX
	JMP  gloop

gtail:
	CMPQ AX, CX
	JGE  gdone
	VMOVSD (SI)(AX*8), X0
	VSUBSD X0, X15, X1
	VMULSD X1, X0, X1
	VMULSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  gtail

gdone:
	VZEROUPPER
	RET
