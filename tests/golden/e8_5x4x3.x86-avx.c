/* generated vector permutation kernel
 * target: x86-avx  width: 512 bits  elem: 8 B  lanes: 8
 * shape (inner-first): (3, 20)  map (inner-first): (1, 0)
 * shuffle steps: 2  block registers: 4  utilization: 5/8
 * buffers need one vector width of writable slack past the data and no alignment
 */
#include <stdint.h>
#if defined(__has_builtin)
#if __has_builtin(__builtin_ia32_vpermt2vard512_mask)
#define VP_GCC_BUILTINS 1
#endif
#endif
#ifdef VP_GCC_BUILTINS
typedef long long __m512i __attribute__((__vector_size__(64), __may_alias__));
typedef long long __m512i_u __attribute__((__vector_size__(64), __may_alias__, __aligned__(1)));
typedef int __v16si __attribute__((__vector_size__(64)));
#define _mm512_loadu_epi32(p) (*(const __m512i_u *)(p))
#define _mm512_storeu_epi32(p, a) (*(__m512i_u *)(p) = (__m512i_u)(a))
#define _mm512_permutex2var_epi32(a, i, b) ((__m512i)__builtin_ia32_vpermt2vard512_mask((__v16si)(i), (__v16si)(a), (__v16si)(b), (unsigned short)-1))
#define _mm512_permutexvar_epi32(i, a) ((__m512i)__builtin_ia32_permvarsi512_mask((__v16si)(a), (__v16si)(i), ({ __m512i vp_u = vp_u; (__v16si)vp_u; }), (unsigned short)-1))
#else
#include <immintrin.h>
#endif
typedef uint64_t vp_elem_t;
static const uint32_t vp_tab0[16] = {0, 1, 2, 3, 4, 5, 6, 7, 6, 7, 8, 9, 10, 11, 12, 13};
static const uint32_t vp_tab1[16] = {0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13, 28, 29};
static const uint32_t vp_tab2[16] = {2, 3, 18, 19, 6, 7, 22, 23, 10, 11, 26, 27, 14, 15, 30, 31};
static const uint32_t vp_tab3[16] = {0, 1, 8, 9, 2, 3, 10, 11, 16, 17, 24, 25, 18, 19, 26, 27};
static const uint32_t vp_tab4[16] = {4, 5, 12, 13, 6, 7, 14, 15, 20, 21, 28, 29, 22, 23, 30, 31};
static const uint32_t vp_tab5[16] = {0, 1, 8, 9, 2, 3, 10, 11, 0, 1, 8, 9, 2, 3, 10, 11};
static const uint32_t vp_tab6[16] = {4, 5, 12, 13, 6, 7, 14, 15, 4, 5, 12, 13, 6, 7, 14, 15};
static const uint32_t vp_tab7[16] = {0, 1, 2, 3, 4, 5, 6, 7, 24, 25, 26, 27, 28, 29, 30, 31};
static void vp_adv_0(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 2) { *bs += 24; *bd += 8; return; }
    i[0] = 0; *bs -= 24; *bd -= 8;
}
static void vp_adv_1(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 3) { *bs += 24; *bd += 8; return; }
    i[0] = 2; *bs -= 0; *bd -= 0;
}
void permute_0b7ebc1c8a96524f(const void *src_v, void *dst_v) {
    const vp_elem_t *src = (const vp_elem_t *)src_v;
    vp_elem_t *dst = (vp_elem_t *)dst_v;
    const __m512i t0 = _mm512_loadu_epi32(vp_tab0);
    const __m512i t1 = _mm512_loadu_epi32(vp_tab1);
    const __m512i t2 = _mm512_loadu_epi32(vp_tab2);
    const __m512i t3 = _mm512_loadu_epi32(vp_tab3);
    const __m512i t4 = _mm512_loadu_epi32(vp_tab4);
    const __m512i t5 = _mm512_loadu_epi32(vp_tab5);
    const __m512i t6 = _mm512_loadu_epi32(vp_tab6);
    const __m512i t7 = _mm512_loadu_epi32(vp_tab7);
    { /* loop main: 2 iterations, unroll 1 */
        int64_t vp_i[1] = {0};
        int64_t vp_bs = 0, vp_bd = 0;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            __builtin_prefetch(dst + vp_bd + 0, 1);
            __builtin_prefetch(dst + vp_bd + 20, 1);
            __builtin_prefetch(dst + vp_bd + 27, 1);
            __builtin_prefetch(dst + vp_bd + 40, 1);
            __m512i x0 = _mm512_loadu_epi32(src + s0_s + 0);
            __m512i x1 = _mm512_permutexvar_epi32(t0, x0);
            __m512i x2 = _mm512_loadu_epi32(src + s0_s + 6);
            __m512i x3 = _mm512_permutexvar_epi32(t0, x2);
            __m512i x4 = _mm512_loadu_epi32(src + s0_s + 12);
            __m512i x5 = _mm512_permutexvar_epi32(t0, x4);
            __m512i x6 = _mm512_loadu_epi32(src + s0_s + 18);
            __m512i x7 = _mm512_permutexvar_epi32(t0, x6);
            __m512i x8 = _mm512_permutex2var_epi32(x1, t1, x3);
            __m512i x9 = _mm512_permutex2var_epi32(x1, t2, x3);
            __m512i x10 = _mm512_permutex2var_epi32(x5, t1, x7);
            __m512i x11 = _mm512_permutex2var_epi32(x5, t2, x7);
            __m512i x12 = _mm512_permutex2var_epi32(x8, t3, x10);
            __m512i x13 = _mm512_permutex2var_epi32(x8, t4, x10);
            __m512i x14 = _mm512_permutex2var_epi32(x9, t3, x11);
            _mm512_storeu_epi32(dst + s0_d + 0, x12);
            _mm512_storeu_epi32(dst + s0_d + 20, x14);
            _mm512_storeu_epi32(dst + s0_d + 40, x13);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {2};
        int64_t vp_bs = 48, vp_bd = 16;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            __m512i x0 = _mm512_loadu_epi32(src + s0_s + 0);
            __m512i x1 = _mm512_permutexvar_epi32(t0, x0);
            __m512i x2 = _mm512_loadu_epi32(src + s0_s + 6);
            __m512i x3 = _mm512_permutexvar_epi32(t0, x2);
            __m512i x4 = _mm512_permutex2var_epi32(x1, t1, x3);
            __m512i x5 = _mm512_permutex2var_epi32(x1, t2, x3);
            __m512i x6 = _mm512_permutexvar_epi32(t5, x4);
            __m512i x7 = _mm512_permutexvar_epi32(t6, x4);
            __m512i x8 = _mm512_permutexvar_epi32(t5, x5);
            __m512i x9 = _mm512_loadu_epi32(dst + s0_d + 0);
            __m512i x10 = _mm512_permutex2var_epi32(x6, t7, x9);
            _mm512_storeu_epi32(dst + s0_d + 0, x10);
            __m512i x12 = _mm512_loadu_epi32(dst + s0_d + 20);
            __m512i x13 = _mm512_permutex2var_epi32(x8, t7, x12);
            _mm512_storeu_epi32(dst + s0_d + 20, x13);
            __m512i x15 = _mm512_loadu_epi32(dst + s0_d + 40);
            __m512i x16 = _mm512_permutex2var_epi32(x7, t7, x15);
            _mm512_storeu_epi32(dst + s0_d + 40, x16);
        }
    }
}
