#include "textflag.h"

// AVX2 matmul micro-kernels; see kernels_amd64.go for the contract. Each
// YMM lane computes one output element exactly as the scalar Go loop does:
// VMULPD/VMULPS then VADDPD/VADDPS (never FMA), with the accumulator as the
// first source of every add, in ascending k. Y15 is left alone.

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// SKIPZERO loads the coefficient at (R11) into x and jumps to skip when it
// is ±0 (ordered and equal to X14 = +0); NaN falls through and is applied,
// as in Go's c == 0.
#define SKIPZERO(x, skip) \
	VMOVSD (R11), x; \
	VUCOMISD X14, x; \
	JNE    2(PC); \
	JPC    skip

// func accumRowAVX2(d, c []float64, stride int, b []float64, k int)
//
// DI: d tile, BX: columns left, SI: c, R8: c stride in bytes, DX: b tile,
// R9: b row stride in bytes, R10: k. Per tile, R11 walks c, R12 walks the
// b rows and R13 counts k down.
TEXT ·accumRowAVX2(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	MOVQ c_base+24(FP), SI
	MOVQ stride+48(FP), R8
	SHLQ $3, R8
	MOVQ b_base+56(FP), DX
	MOVQ BX, R9
	SHLQ $3, R9
	MOVQ k+80(FP), R10
	VXORPD X14, X14, X14

tile32:
	CMPQ BX, $32
	JLT  tile16
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13

k32:
	SKIPZERO(X8, skip32)
	VBROADCASTSD (R11), Y8
	VMULPD       (R12), Y8, Y9
	VMULPD       32(R12), Y8, Y10
	VMULPD       64(R12), Y8, Y11
	VMULPD       96(R12), Y8, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R12), Y8, Y9
	VMULPD       160(R12), Y8, Y10
	VMULPD       192(R12), Y8, Y11
	VMULPD       224(R12), Y8, Y12
	VADDPD       Y9, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7

skip32:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  k32
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, BX
	JMP     tile32

tile16:
	CMPQ BX, $16
	JLT  tile4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ R10, R13

k16:
	SKIPZERO(X4, skip16)
	VBROADCASTSD (R11), Y4
	VMULPD       (R12), Y4, Y5
	VMULPD       32(R12), Y4, Y6
	VMULPD       64(R12), Y4, Y7
	VMULPD       96(R12), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3

skip16:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  k16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, BX
	JMP     tile16

tile4:
	CMPQ BX, $4
	JLT  tail
	VMOVUPD (DI), Y0
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13

k4:
	SKIPZERO(X4, skip4)
	VBROADCASTSD (R11), Y4
	VMULPD       (R12), Y4, Y5
	VADDPD       Y5, Y0, Y0

skip4:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  k4
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, BX
	JMP     tile4

tail:
	TESTQ BX, BX
	JZ    done
	VMOVSD (DI), X0
	MOVQ   SI, R11
	MOVQ   DX, R12
	MOVQ   R10, R13

k1:
	SKIPZERO(X4, skip1)
	VMULSD (R12), X4, X5
	VADDSD X5, X0, X0

skip1:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  k1
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   BX
	JMP    tail

done:
	VZEROUPPER
	RET

// TRANSPOSE4(a0, a1, a2, a3) turns four column vectors (lane r = row r)
// into four row vectors in Y0..Y3 (lane c = column c), via Y8..Y11.
#define TRANSPOSE4(a0, a1, a2, a3) \
	VUNPCKLPD  a1, a0, Y8;       \
	VUNPCKHPD  a1, a0, Y9;       \
	VUNPCKLPD  a3, a2, Y10;      \
	VUNPCKHPD  a3, a2, Y11;      \
	VPERM2F128 $0x20, Y10, Y8, Y0; \
	VPERM2F128 $0x20, Y11, Y9, Y1; \
	VPERM2F128 $0x31, Y10, Y8, Y2; \
	VPERM2F128 $0x31, Y11, Y9, Y3

// STOREROW(y, r) stores row vector y at R12, the next d row, unless r rows
// are already stored.
#define STOREROW(y, r) \
	CMPQ    R9, $r;   \
	JLE     tbdone;   \
	ADDQ    R8, R12;  \
	VMOVUPD y, (R12)

// func mulTransBTileAVX2(d []float64, ldd, rows int, pa, b0, b1, b2, b3 []float64)
//
// An 8×4 tile of a·bᵀ: lane r of accumulator Y(c) (Y(4+c)) is
// d[r][c] (d[4+r][c]) for output columns c = 0..3 and rows 0..3 (4..7).
// SI walks pa, the 8 rows of a packed k-major; AX, BX, CX and DX are the
// four b rows, indexed by R11 = 8k. The sums start from +0 and add in
// ascending k with no zero skip. The tile is transposed and its first
// rows rows are stored at d with a row stride of R8 = 8·ldd bytes.
TEXT ·mulTransBTileAVX2(SB), NOSPLIT, $0-160
	MOVQ d_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	SHLQ $3, R8
	MOVQ rows+32(FP), R9
	MOVQ pa_base+40(FP), SI
	MOVQ b0_base+64(FP), AX
	MOVQ b0_len+72(FP), R10
	MOVQ b1_base+88(FP), BX
	MOVQ b2_base+112(FP), CX
	MOVQ b3_base+136(FP), DX
	XORQ R11, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

tbk:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y4, Y4
	VBROADCASTSD (BX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y1, Y1
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (CX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y6, Y6
	VBROADCASTSD (DX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y3, Y3
	VADDPD       Y12, Y7, Y7
	ADDQ         $64, SI
	ADDQ         $8, R11
	DECQ         R10
	JNZ          tbk

	// Rows 4..7 are transposed after rows 0..3 are stored, so move them
	// out of Y4..Y7's way first: TRANSPOSE4 writes Y0..Y3 and Y8..Y11.
	VMOVAPD Y4, Y12
	VMOVAPD Y5, Y13
	VMOVAPD Y6, Y14
	VMOVAPD Y7, Y4
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	MOVQ    DI, R12
	VMOVUPD Y0, (R12)
	STOREROW(Y1, 1)
	STOREROW(Y2, 2)
	STOREROW(Y3, 3)
	CMPQ    R9, $4
	JLE     tbdone
	TRANSPOSE4(Y12, Y13, Y14, Y4)
	ADDQ    R8, R12
	VMOVUPD Y0, (R12)
	STOREROW(Y1, 5)
	STOREROW(Y2, 6)
	STOREROW(Y3, 7)

tbdone:
	VZEROUPPER
	RET

// GROUP32(off, acc) adds (((a0·b0 + a1·b1) + a2·b2) + a3·b3) to acc for the
// 8 columns at byte offset off, with a0..a3 broadcast in Y4..Y7 and the
// four b rows at (R12), (R12)(R9*1), (R8) and (R8)(R9*1).
#define GROUP32(off, acc) \
	VMULPS off(R12), Y4, Y8; \
	VMULPS off(R12)(R9*1), Y5, Y9; \
	VMULPS off(R8), Y6, Y10; \
	VMULPS off(R8)(R9*1), Y7, Y11; \
	VADDPS Y9, Y8, Y8; \
	VADDPS Y10, Y8, Y8; \
	VADDPS Y11, Y8, Y8; \
	VADDPS Y8, acc, acc

// STEP32(off, acc) adds a·b for one leftover k, a broadcast in Y4 and the
// b row at (R12).
#define STEP32(off, acc) \
	VMULPS off(R12), Y4, Y8; \
	VADDPS Y8, acc, acc

// BROADCAST4 loads a0..a3 from (R11) into Y4..Y7 and points R8 at b row
// k+2.
#define BROADCAST4 \
	VBROADCASTSS (R11), Y4; \
	VBROADCASTSS 4(R11), Y5; \
	VBROADCASTSS 8(R11), Y6; \
	VBROADCASTSS 12(R11), Y7; \
	LEAQ         (R12)(R9*2), R8

// func mulRow32AVX2(d, a, b []float32)
//
// DI: d tile, BX: columns left, SI: a, CX: k, DX: b tile, R9: b row stride
// in bytes, AX: four b rows in bytes. Per tile, R11 walks a, R12 walks the
// b rows and R13 counts k down.
TEXT ·mulRow32AVX2(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	MOVQ BX, R9
	SHLQ $2, R9
	MOVQ R9, AX
	SHLQ $2, AX

tile32:
	CMPQ BX, $32
	JLT  tile8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    CX, R13

g32:
	CMPQ R13, $4
	JLT  s32
	BROADCAST4
	GROUP32(0, Y0)
	GROUP32(32, Y1)
	GROUP32(64, Y2)
	GROUP32(96, Y3)
	ADDQ $16, R11
	ADDQ AX, R12
	SUBQ $4, R13
	JMP  g32

s32:
	TESTQ R13, R13
	JZ    st32
	VBROADCASTSS (R11), Y4
	STEP32(0, Y0)
	STEP32(32, Y1)
	STEP32(64, Y2)
	STEP32(96, Y3)
	ADDQ $4, R11
	ADDQ R9, R12
	DECQ R13
	JMP  s32

st32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, BX
	JMP     tile32

tile8:
	CMPQ BX, $8
	JLT  tail32
	VMOVUPS (DI), Y0
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    CX, R13

g8:
	CMPQ R13, $4
	JLT  s8
	BROADCAST4
	GROUP32(0, Y0)
	ADDQ $16, R11
	ADDQ AX, R12
	SUBQ $4, R13
	JMP  g8

s8:
	TESTQ R13, R13
	JZ    st8
	VBROADCASTSS (R11), Y4
	STEP32(0, Y0)
	ADDQ $4, R11
	ADDQ R9, R12
	DECQ R13
	JMP  s8

st8:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, BX
	JMP     tile8

tail32:
	TESTQ BX, BX
	JZ    done32
	VMOVSS (DI), X0
	MOVQ   SI, R11
	MOVQ   DX, R12
	MOVQ   CX, R13

g1:
	CMPQ R13, $4
	JLT  s1
	VMOVSS (R11), X4
	VMOVSS 4(R11), X5
	VMOVSS 8(R11), X6
	VMOVSS 12(R11), X7
	LEAQ   (R12)(R9*2), R8
	VMULSS (R12), X4, X8
	VMULSS (R12)(R9*1), X5, X9
	VMULSS (R8), X6, X10
	VMULSS (R8)(R9*1), X7, X11
	VADDSS X9, X8, X8
	VADDSS X10, X8, X8
	VADDSS X11, X8, X8
	VADDSS X8, X0, X0
	ADDQ   $16, R11
	ADDQ   AX, R12
	SUBQ   $4, R13
	JMP    g1

s1:
	TESTQ R13, R13
	JZ    st1
	VMOVSS (R11), X4
	VMULSS (R12), X4, X8
	VADDSS X8, X0, X0
	ADDQ   $4, R11
	ADDQ   R9, R12
	DECQ   R13
	JMP    s1

st1:
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, DX
	DECQ   BX
	JMP    tail32

done32:
	VZEROUPPER
	RET
