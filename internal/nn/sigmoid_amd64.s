// AVX2+FMA sigmoid, four float64 lanes at a time. See sigmoid4 in
// gemm_amd64.go for the Go-level contract and Activation.applyTo in nn.go for
// the caller.
//
// exp is the FMA path of the Go runtime's math.Exp on amd64
// (src/math/exp_amd64.s, after Shibata's SLEEF), with every scalar instruction
// replaced by its packed form and nothing reordered, so each lane rounds
// exactly where the scalar code does: k = round(x*LOG2E); r = x - k*LN2U -
// k*LN2L with two fused negated multiply-adds; r/16; a seven-step fused Horner
// chain; y*(y+2) four times, the last fused with the +1; the result scaled by
// 2^k built from exponent bits. The branches math.Exp takes for NaN, +-Inf,
// overflow and a denormal result cannot be taken for |x| <= 700 (k+1023 stays
// within [13, 2033]), and a group outside that range is left to the caller.

#include "textflag.h"

// K4 lays a float64 constant out four times, so that it can be a 256-bit
// memory operand.
#define K4(off, v) \
	DATA sigmoidk<>+(off+0)(SB)/8, v \
	DATA sigmoidk<>+(off+8)(SB)/8, v \
	DATA sigmoidk<>+(off+16)(SB)/8, v \
	DATA sigmoidk<>+(off+24)(SB)/8, v

K4(0, $0x7FFFFFFFFFFFFFFF) // all but the sign bit
K4(32, $0x8000000000000000) // the sign bit
K4(64, $700.0) // range guard
K4(96, $1.4426950408889634073599246810018920) // LOG2E
K4(128, $0.69314718055966295651160180568695068359375) // LN2U, upper half of ln 2
K4(160, $0.28235290563031577122588448175013436025525412068e-12) // LN2L, lower half
K4(192, $0.0625)
K4(224, $2.4801587301587301587e-5) // 1/8!, the Horner chain's first term
K4(256, $1.9841269841269841270e-4) // 1/7!
K4(288, $1.3888888888888888889e-3) // 1/6!
K4(320, $8.3333333333333333333e-3) // 1/5!
K4(352, $4.1666666666666666667e-2) // 1/4!
K4(384, $1.6666666666666666667e-1) // 1/3!
K4(416, $0.5)
K4(448, $1.0)
K4(480, $2.0)
K4(512, $0x3FF) // exponent bias
GLOBL sigmoidk<>(SB), RODATA, $544

#define ABSMASK sigmoidk<>+0(SB)
#define SIGNBIT sigmoidk<>+32(SB)
#define LIMIT sigmoidk<>+64(SB)
#define LOG2E sigmoidk<>+96(SB)
#define LN2U sigmoidk<>+128(SB)
#define LN2L sigmoidk<>+160(SB)
#define SIXTEENTH sigmoidk<>+192(SB)
#define C8 sigmoidk<>+224(SB)
#define C7 sigmoidk<>+256(SB)
#define C6 sigmoidk<>+288(SB)
#define C5 sigmoidk<>+320(SB)
#define C4 sigmoidk<>+352(SB)
#define C3 sigmoidk<>+384(SB)
#define HALF sigmoidk<>+416(SB)
#define ONE sigmoidk<>+448(SB)
#define TWO sigmoidk<>+480(SB)
#define BIAS sigmoidk<>+512(SB)

// func sigmoid4(zs *float64, groups int) int
TEXT ·sigmoid4(SB), NOSPLIT, $0-24
	MOVQ zs+0(FP), DI
	MOVQ groups+8(FP), CX
	XORQ AX, AX                    // groups done
	VMOVUPD ONE, Y15
	VMOVUPD TWO, Y14
	TESTQ CX, CX
	JZ   done

loop:
	VMOVUPD (DI), Y0               // z
	VANDPD  ABSMASK, Y0, Y1
	VCMPPD  $6, LIMIT, Y1, Y1      // !(|z| <= 700): true for NaN as well
	VMOVMSKPD Y1, BX
	TESTL BX, BX
	JNZ  done
	VXORPD  SIGNBIT, Y0, Y0        // x = -z
	VMULPD  LOG2E, Y0, Y1
	VCVTPD2DQY Y1, X2              // k = round(x*LOG2E), int32 lanes
	VCVTDQ2PD X2, Y1
	VFNMADD231PD LN2U, Y1, Y0      // x -= k*LN2U
	VFNMADD231PD LN2L, Y1, Y0      // x -= k*LN2L
	VMULPD  SIXTEENTH, Y0, Y0
	VMOVUPD C8, Y1
	VFMADD213PD C7, Y0, Y1         // p = p*x + c
	VFMADD213PD C6, Y0, Y1
	VFMADD213PD C5, Y0, Y1
	VFMADD213PD C4, Y0, Y1
	VFMADD213PD C3, Y0, Y1
	VFMADD213PD HALF, Y0, Y1
	VFMADD213PD Y15, Y0, Y1
	VMULPD  Y1, Y0, Y0             // y = exp(x/16) - 1
	VADDPD  Y14, Y0, Y1            // y = y*(y+2): exp(2t)-1 from exp(t)-1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y14, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y14, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y14, Y0, Y1
	VFMADD213PD Y15, Y1, Y0        // y*(y+2) + 1 = exp(x - k ln 2)
	VPMOVSXDQ X2, Y2
	VPADDQ  BIAS, Y2, Y2
	VPSLLQ  $52, Y2, Y2            // 2^k
	VMULPD  Y2, Y0, Y0             // exp(-z)
	VADDPD  Y15, Y0, Y0
	VDIVPD  Y0, Y15, Y0            // 1 / (1 + exp(-z))
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
