/* generated vector permutation kernel
 * target: x86-avx  width: 256 bits  elem: 4 B  lanes: 8
 * shape (inner-first): (3, 3, 5)  map (inner-first): (2, 1, 0)
 * shuffle steps: 3  block registers: 8  utilization: 45/128
 * buffers need one vector width of writable slack past the data and no alignment
 */
#include <stdint.h>
#if defined(__has_builtin)
#if __has_builtin(__builtin_ia32_vpermt2vard256_mask)
#define VP_GCC_BUILTINS 1
#endif
#endif
#ifdef VP_GCC_BUILTINS
typedef long long __m256i __attribute__((__vector_size__(32), __may_alias__));
typedef long long __m256i_u __attribute__((__vector_size__(32), __may_alias__, __aligned__(1)));
typedef int __v8si __attribute__((__vector_size__(32)));
typedef int __v8si_u __attribute__((__vector_size__(32), __may_alias__, __aligned__(1)));
#define _mm256_loadu_epi32(p) ((__m256i)*(const __v8si_u *)(p))
#define _mm256_storeu_epi32(p, a) (*(__m256i_u *)(p) = (__m256i_u)(a))
#define _mm256_permutex2var_epi32(a, i, b) ((__m256i)__builtin_ia32_vpermt2vard256_mask((__v8si)(i), (__v8si)(a), (__v8si)(b), (unsigned char)-1))
#define _mm256_permutexvar_epi32(i, a) ((__m256i)__builtin_ia32_permvarsi256_mask((__v8si)(a), (__v8si)(i), (__v8si){0}, (unsigned char)-1))
#else
#include <immintrin.h>
#endif
typedef uint32_t vp_elem_t;
static const uint32_t vp_tab0[8] = {0, 1, 2, 3, 3, 4, 5, 6};
static const uint32_t vp_tab1[8] = {0, 8, 1, 9, 4, 12, 5, 13};
static const uint32_t vp_tab2[8] = {2, 10, 3, 11, 6, 14, 7, 15};
static const uint32_t vp_tab3[8] = {0, 0, 1, 1, 4, 4, 5, 5};
static const uint32_t vp_tab4[8] = {2, 2, 3, 3, 6, 6, 7, 7};
static const uint32_t vp_tab5[8] = {0, 1, 8, 9, 4, 5, 12, 13};
static const uint32_t vp_tab6[8] = {2, 3, 10, 11, 6, 7, 14, 15};
static const uint32_t vp_tab7[8] = {0, 1, 0, 1, 4, 5, 4, 5};
static const uint32_t vp_tab8[8] = {2, 3, 2, 3, 6, 7, 6, 7};
static const uint32_t vp_tab9[8] = {0, 1, 2, 3, 8, 9, 10, 11};
static const uint32_t vp_tab10[8] = {4, 5, 6, 7, 12, 13, 14, 15};
static const uint32_t vp_tab11[8] = {0, 1, 2, 3, 4, 8, 9, 10};
static const uint32_t vp_tab12[8] = {0, 1, 2, 3, 4, 13, 14, 15};
static void vp_adv_0(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 1) { *bs += 6; *bd += 10; return; }
    i[0] = 0; *bs -= 0; *bd -= 0;
}
static void vp_adv_1(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 2) { *bs += 6; *bd += 10; return; }
    i[0] = 1; *bs -= 0; *bd -= 0;
}
void permute_660c920297505a38(const void *src_v, void *dst_v) {
    const vp_elem_t *src = (const vp_elem_t *)src_v;
    vp_elem_t *dst = (vp_elem_t *)dst_v;
    const __m256i t0 = _mm256_loadu_epi32(vp_tab0);
    const __m256i t1 = _mm256_loadu_epi32(vp_tab1);
    const __m256i t2 = _mm256_loadu_epi32(vp_tab2);
    const __m256i t3 = _mm256_loadu_epi32(vp_tab3);
    const __m256i t4 = _mm256_loadu_epi32(vp_tab4);
    const __m256i t5 = _mm256_loadu_epi32(vp_tab5);
    const __m256i t6 = _mm256_loadu_epi32(vp_tab6);
    const __m256i t7 = _mm256_loadu_epi32(vp_tab7);
    const __m256i t8 = _mm256_loadu_epi32(vp_tab8);
    const __m256i t9 = _mm256_loadu_epi32(vp_tab9);
    const __m256i t10 = _mm256_loadu_epi32(vp_tab10);
    const __m256i t11 = _mm256_loadu_epi32(vp_tab11);
    const __m256i t12 = _mm256_loadu_epi32(vp_tab12);
    { /* loop main: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {0};
        int64_t vp_bs = 0, vp_bd = 0;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            __m256i x0 = _mm256_loadu_epi32(src + s0_s + 0);
            __m256i x1 = _mm256_permutexvar_epi32(t0, x0);
            __m256i x2 = _mm256_loadu_epi32(src + s0_s + 9);
            __m256i x3 = _mm256_permutexvar_epi32(t0, x2);
            __m256i x4 = _mm256_loadu_epi32(src + s0_s + 18);
            __m256i x5 = _mm256_permutexvar_epi32(t0, x4);
            __m256i x6 = _mm256_loadu_epi32(src + s0_s + 27);
            __m256i x7 = _mm256_permutexvar_epi32(t0, x6);
            __m256i x8 = _mm256_loadu_epi32(src + s0_s + 36);
            __m256i x9 = _mm256_permutexvar_epi32(t0, x8);
            __m256i x10 = _mm256_permutex2var_epi32(x1, t1, x3);
            __m256i x11 = _mm256_permutex2var_epi32(x1, t2, x3);
            __m256i x12 = _mm256_permutex2var_epi32(x5, t1, x7);
            __m256i x13 = _mm256_permutex2var_epi32(x5, t2, x7);
            __m256i x14 = _mm256_permutexvar_epi32(t3, x9);
            __m256i x15 = _mm256_permutexvar_epi32(t4, x9);
            __m256i x16 = _mm256_permutex2var_epi32(x10, t5, x12);
            __m256i x17 = _mm256_permutex2var_epi32(x10, t6, x12);
            __m256i x18 = _mm256_permutex2var_epi32(x11, t5, x13);
            __m256i x19 = _mm256_permutexvar_epi32(t7, x14);
            __m256i x20 = _mm256_permutexvar_epi32(t8, x14);
            __m256i x21 = _mm256_permutexvar_epi32(t7, x15);
            __m256i x22 = _mm256_permutex2var_epi32(x16, t9, x19);
            __m256i x23 = _mm256_permutex2var_epi32(x16, t10, x19);
            __m256i x24 = _mm256_permutex2var_epi32(x18, t9, x21);
            __m256i x25 = _mm256_permutex2var_epi32(x18, t10, x21);
            __m256i x26 = _mm256_permutex2var_epi32(x17, t9, x20);
            __m256i x27 = _mm256_permutex2var_epi32(x17, t10, x20);
            __m256i x28 = _mm256_permutex2var_epi32(x22, t11, x23);
            _mm256_storeu_epi32(dst + s0_d + 0, x28);
            __m256i x30 = _mm256_loadu_epi32(dst + s0_d + 5);
            __m256i x31 = _mm256_permutex2var_epi32(x23, t12, x30);
            _mm256_storeu_epi32(dst + s0_d + 5, x31);
            __m256i x33 = _mm256_permutex2var_epi32(x26, t11, x27);
            _mm256_storeu_epi32(dst + s0_d + 15, x33);
            __m256i x35 = _mm256_loadu_epi32(dst + s0_d + 20);
            __m256i x36 = _mm256_permutex2var_epi32(x27, t12, x35);
            _mm256_storeu_epi32(dst + s0_d + 20, x36);
            __m256i x38 = _mm256_permutex2var_epi32(x24, t11, x25);
            _mm256_storeu_epi32(dst + s0_d + 30, x38);
            __m256i x40 = _mm256_loadu_epi32(dst + s0_d + 35);
            __m256i x41 = _mm256_permutex2var_epi32(x25, t12, x40);
            _mm256_storeu_epi32(dst + s0_d + 35, x41);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {1};
        int64_t vp_bs = 6, vp_bd = 10;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            __m256i x0 = _mm256_loadu_epi32(src + s0_s + 0);
            __m256i x1 = _mm256_permutexvar_epi32(t0, x0);
            __m256i x2 = _mm256_loadu_epi32(src + s0_s + 9);
            __m256i x3 = _mm256_permutexvar_epi32(t0, x2);
            __m256i x4 = _mm256_loadu_epi32(src + s0_s + 18);
            __m256i x5 = _mm256_permutexvar_epi32(t0, x4);
            __m256i x6 = _mm256_loadu_epi32(src + s0_s + 27);
            __m256i x7 = _mm256_permutexvar_epi32(t0, x6);
            __m256i x8 = _mm256_loadu_epi32(src + s0_s + 36);
            __m256i x9 = _mm256_permutexvar_epi32(t0, x8);
            __m256i x10 = _mm256_permutex2var_epi32(x1, t1, x3);
            __m256i x11 = _mm256_permutex2var_epi32(x1, t2, x3);
            __m256i x12 = _mm256_permutex2var_epi32(x5, t1, x7);
            __m256i x13 = _mm256_permutex2var_epi32(x5, t2, x7);
            __m256i x14 = _mm256_permutexvar_epi32(t3, x9);
            __m256i x15 = _mm256_permutexvar_epi32(t4, x9);
            __m256i x16 = _mm256_permutex2var_epi32(x10, t5, x12);
            __m256i x17 = _mm256_permutex2var_epi32(x10, t6, x12);
            __m256i x18 = _mm256_permutex2var_epi32(x11, t5, x13);
            __m256i x19 = _mm256_permutexvar_epi32(t7, x14);
            __m256i x20 = _mm256_permutexvar_epi32(t8, x14);
            __m256i x21 = _mm256_permutexvar_epi32(t7, x15);
            __m256i x22 = _mm256_permutex2var_epi32(x16, t9, x19);
            __m256i x23 = _mm256_permutex2var_epi32(x18, t9, x21);
            __m256i x24 = _mm256_permutex2var_epi32(x17, t9, x20);
            __m256i x25 = _mm256_loadu_epi32(dst + s0_d + 0);
            __m256i x26 = _mm256_permutex2var_epi32(x22, t12, x25);
            _mm256_storeu_epi32(dst + s0_d + 0, x26);
            __m256i x28 = _mm256_loadu_epi32(dst + s0_d + 15);
            __m256i x29 = _mm256_permutex2var_epi32(x24, t12, x28);
            _mm256_storeu_epi32(dst + s0_d + 15, x29);
            __m256i x31 = _mm256_loadu_epi32(dst + s0_d + 30);
            __m256i x32 = _mm256_permutex2var_epi32(x23, t12, x31);
            _mm256_storeu_epi32(dst + s0_d + 30, x32);
        }
    }
}
