#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// ROW multiplies the broadcast A element at addr by the B row held in
// Y8:Y9 and adds the products into the accumulator pair lo:hi. Multiply
// and add stay separate instructions (no FMA) so every element is
// rounded exactly as the scalar loop rounds it, and the accumulator is
// the first addend, as in the scalar acc += a*b.
#define ROW(addr, lo, hi) \
	VBROADCASTSD addr, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, lo, lo; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, hi, hi

// UNORD ORs a NaN mask of acc into Y15.
#define UNORD(acc) \
	VCMPPD $3, acc, acc, Y11; \
	VORPD  Y11, Y15, Y15

// func gemm4x8AVX2(c, a, b *float64, kc, blocks, lda, ldb, ldc int) (nan bool)
//
// For each of blocks consecutive 4-row blocks it loads a 4x8 tile of C,
// adds A[4 x kc] @ B[kc x 8] over ascending k, and stores the tile back.
// Strides are in elements. nan reports whether any stored element is NaN.
TEXT ·gemm4x8AVX2(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ kc+24(FP), CX
	MOVQ blocks+32(FP), R8
	MOVQ lda+40(FP), R9
	MOVQ ldb+48(FP), R10
	MOVQ ldc+56(FP), R11
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R9)(R9*2), R12  // 3*lda bytes
	LEAQ (R11)(R11*2), R13 // 3*ldc bytes
	VXORPD Y15, Y15, Y15

block:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R11*1), Y2
	VMOVUPD 32(DI)(R11*1), Y3
	VMOVUPD (DI)(R11*2), Y4
	VMOVUPD 32(DI)(R11*2), Y5
	VMOVUPD (DI)(R13*1), Y6
	VMOVUPD 32(DI)(R13*1), Y7
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ CX, R14

kloop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW((AX), Y0, Y1)
	ROW((AX)(R9*1), Y2, Y3)
	ROW((AX)(R9*2), Y4, Y5)
	ROW((AX)(R12*1), Y6, Y7)
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ R14
	JNZ  kloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R11*1)
	VMOVUPD Y3, 32(DI)(R11*1)
	VMOVUPD Y4, (DI)(R11*2)
	VMOVUPD Y5, 32(DI)(R11*2)
	VMOVUPD Y6, (DI)(R13*1)
	VMOVUPD Y7, 32(DI)(R13*1)
	UNORD(Y0)
	UNORD(Y1)
	UNORD(Y2)
	UNORD(Y3)
	UNORD(Y4)
	UNORD(Y5)
	UNORD(Y6)
	UNORD(Y7)

	LEAQ (DI)(R11*4), DI
	LEAQ (SI)(R9*4), SI
	DECQ R8
	JNZ  block

	VPTEST Y15, Y15
	SETNE  nan+64(FP)
	VZEROUPPER
	RET
