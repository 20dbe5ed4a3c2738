/* generated vector permutation kernel
 * target: x86-avx  width: 512 bits  elem: 8 B  lanes: 8
 * shape (inner-first): (3, 3, 3, 4)  map (inner-first): (0, 3, 2, 1)
 * shuffle steps: 1  block registers: 2  utilization: 27/64
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
static const uint32_t vp_tab1[16] = {0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23};
static const uint32_t vp_tab2[16] = {8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31};
static const uint32_t vp_tab3[16] = {0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 28, 29, 30, 31};
static inline __attribute__((always_inline)) void vp_adv_0(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 2) { *bs += 54; *bd += 6; return; }
    i[0] = 0; *bs -= 54; *bd -= 6;
    if (++i[1] < 2) { *bs += 6; *bd += 72; return; }
    i[1] = 0; *bs -= 6; *bd -= 72;
    if (++i[2] < 3) { *bs += 9; *bd += 12; return; }
    i[2] = 0; *bs -= 18; *bd -= 24;
}
void permute_cca5b2e5db2d3c06(const void *src_v, void *dst_v) {
    const vp_elem_t *src = (const vp_elem_t *)src_v;
    vp_elem_t *dst = (vp_elem_t *)dst_v;
    const __m512i t0 = _mm512_loadu_epi32(vp_tab0);
    const __m512i t1 = _mm512_loadu_epi32(vp_tab1);
    const __m512i t2 = _mm512_loadu_epi32(vp_tab2);
    const __m512i t3 = _mm512_loadu_epi32(vp_tab3);
    { /* interleaved walk: 6 outer steps x 2 blocks, phases main (6 trips), tail[d1] (6 trips) */
        int64_t vp_i[3] = {0, 0, 0};
        int64_t vp_bs = 0, vp_bd = 0;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_ot = 0; vp_ot < 6; ++vp_ot) {
            if (vp_i[1] < 1) { /* phase main: 6 trips */
                for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
                    s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
                    __builtin_prefetch(dst + vp_bd + 0, 1);
                    __builtin_prefetch(dst + vp_bd + 7, 1);
                    __builtin_prefetch(dst + vp_bd + 36, 1);
                    __builtin_prefetch(dst + vp_bd + 43, 1);
                    __m512i x0 = _mm512_loadu_epi32(src + s0_s + 0);
                    __m512i x1 = _mm512_permutexvar_epi32(t0, x0);
                    __m512i x2 = _mm512_loadu_epi32(src + s0_s + 27);
                    __m512i x3 = _mm512_permutexvar_epi32(t0, x2);
                    __m512i x4 = _mm512_permutex2var_epi32(x1, t1, x3);
                    __m512i x5 = _mm512_permutex2var_epi32(x1, t2, x3);
                    __m512i x6 = _mm512_loadu_epi32(dst + s0_d + 0);
                    __m512i x7 = _mm512_permutex2var_epi32(x4, t3, x6);
                    _mm512_storeu_epi32(dst + s0_d + 0, x7);
                    __m512i x9 = _mm512_loadu_epi32(dst + s0_d + 36);
                    __m512i x10 = _mm512_permutex2var_epi32(x5, t3, x9);
                    _mm512_storeu_epi32(dst + s0_d + 36, x10);
                }
            } else { /* phase tail[d1]: 6 trips */
                for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
                    s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
                    __builtin_prefetch(dst + vp_bd + 0, 1);
                    __builtin_prefetch(dst + vp_bd + 7, 1);
                    __m512i x0 = _mm512_loadu_epi32(src + s0_s + 0);
                    __m512i x1 = _mm512_permutexvar_epi32(t0, x0);
                    __m512i x2 = _mm512_loadu_epi32(src + s0_s + 27);
                    __m512i x3 = _mm512_permutexvar_epi32(t0, x2);
                    __m512i x4 = _mm512_permutex2var_epi32(x1, t1, x3);
                    __m512i x5 = _mm512_loadu_epi32(dst + s0_d + 0);
                    __m512i x6 = _mm512_permutex2var_epi32(x4, t3, x5);
                    _mm512_storeu_epi32(dst + s0_d + 0, x6);
                }
            }
        }
    }
}
