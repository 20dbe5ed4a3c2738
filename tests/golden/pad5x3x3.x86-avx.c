/* generated vector permutation kernel
 * target: x86-avx  width: 256 bits  elem: 4 B  lanes: 8
 * shape (inner-first): (3, 3, 5)  map (inner-first): (2, 1, 0)
 * shuffle steps: 3  block registers: 8  utilization: 45/128
 * buffers need one vector width of writable slack past the data;
 * aligned accesses, when present, assume vector-aligned buffer bases
 */
#include <stdint.h>
#include <immintrin.h>
static const uint32_t vp_tab0[8] = {0, 1, 2, 3, 3, 4, 5, 6};
static const uint32_t vp_tab1[8] = {0, 8, 2, 10, 4, 12, 6, 14};
static const uint32_t vp_tab2[8] = {1, 9, 3, 11, 5, 13, 7, 15};
static const uint32_t vp_tab3[8] = {0, 0, 2, 2, 4, 4, 6, 6};
static const uint32_t vp_tab4[8] = {1, 1, 3, 3, 5, 5, 7, 7};
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
    const uint32_t *src = (const uint32_t *)src_v;
    uint32_t *dst = (uint32_t *)dst_v;
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
        __m256i v0, v1, v2, v3, v4, v5, v6, v7;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            v0 = _mm256_loadu_epi32(src + s0_s + 0);
            v1 = _mm256_loadu_epi32(src + s0_s + 9);
            v2 = _mm256_loadu_epi32(src + s0_s + 18);
            v3 = _mm256_loadu_epi32(src + s0_s + 27);
            v4 = _mm256_loadu_epi32(src + s0_s + 36);
            v5 = _mm256_permutexvar_epi32(t0, v0);
            v0 = _mm256_permutexvar_epi32(t0, v1);
            v1 = _mm256_permutexvar_epi32(t0, v2);
            v2 = _mm256_permutexvar_epi32(t0, v3);
            v3 = _mm256_permutexvar_epi32(t0, v4);
            v4 = _mm256_permutex2var_epi32(v5, t1, v0);
            v6 = _mm256_permutex2var_epi32(v5, t2, v0);
            v0 = _mm256_permutex2var_epi32(v1, t1, v2);
            v5 = _mm256_permutex2var_epi32(v1, t2, v2);
            v1 = _mm256_permutexvar_epi32(t3, v3);
            v2 = _mm256_permutexvar_epi32(t4, v3);
            v3 = _mm256_permutex2var_epi32(v4, t5, v0);
            v7 = _mm256_permutex2var_epi32(v4, t6, v0);
            v0 = _mm256_permutex2var_epi32(v6, t5, v5);
            v4 = _mm256_permutexvar_epi32(t7, v1);
            v5 = _mm256_permutexvar_epi32(t8, v1);
            v1 = _mm256_permutexvar_epi32(t7, v2);
            v2 = _mm256_permutex2var_epi32(v3, t9, v4);
            v6 = _mm256_permutex2var_epi32(v3, t10, v4);
            v3 = _mm256_permutex2var_epi32(v7, t9, v5);
            v4 = _mm256_permutex2var_epi32(v7, t10, v5);
            v5 = _mm256_permutex2var_epi32(v0, t9, v1);
            v7 = _mm256_permutex2var_epi32(v0, t10, v1);
            v0 = _mm256_permutex2var_epi32(v2, t11, v6);
            _mm256_storeu_epi32(dst + s0_d + 0, v0);
            v0 = _mm256_loadu_epi32(dst + s0_d + 5);
            v1 = _mm256_permutex2var_epi32(v6, t12, v0);
            _mm256_storeu_epi32(dst + s0_d + 5, v1);
            v0 = _mm256_permutex2var_epi32(v5, t11, v7);
            _mm256_storeu_epi32(dst + s0_d + 15, v0);
            v0 = _mm256_loadu_epi32(dst + s0_d + 20);
            v1 = _mm256_permutex2var_epi32(v7, t12, v0);
            _mm256_storeu_epi32(dst + s0_d + 20, v1);
            v0 = _mm256_permutex2var_epi32(v3, t11, v4);
            _mm256_storeu_epi32(dst + s0_d + 30, v0);
            v0 = _mm256_loadu_epi32(dst + s0_d + 35);
            v1 = _mm256_permutex2var_epi32(v4, t12, v0);
            _mm256_storeu_epi32(dst + s0_d + 35, v1);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {1};
        int64_t vp_bs = 6, vp_bd = 10;
        int64_t s0_s = 0, s0_d = 0;
        __m256i v0, v1, v2, v3, v4, v5, v6, v7;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            v0 = _mm256_loadu_epi32(src + s0_s + 0);
            v1 = _mm256_loadu_epi32(src + s0_s + 9);
            v2 = _mm256_loadu_epi32(src + s0_s + 18);
            v3 = _mm256_loadu_epi32(src + s0_s + 27);
            v4 = _mm256_loadu_epi32(src + s0_s + 36);
            v5 = _mm256_permutexvar_epi32(t0, v0);
            v0 = _mm256_permutexvar_epi32(t0, v1);
            v1 = _mm256_permutexvar_epi32(t0, v2);
            v2 = _mm256_permutexvar_epi32(t0, v3);
            v3 = _mm256_permutexvar_epi32(t0, v4);
            v4 = _mm256_permutex2var_epi32(v5, t1, v0);
            v6 = _mm256_permutex2var_epi32(v5, t2, v0);
            v0 = _mm256_permutex2var_epi32(v1, t1, v2);
            v5 = _mm256_permutex2var_epi32(v1, t2, v2);
            v1 = _mm256_permutexvar_epi32(t3, v3);
            v2 = _mm256_permutexvar_epi32(t4, v3);
            v3 = _mm256_permutex2var_epi32(v4, t5, v0);
            v7 = _mm256_permutex2var_epi32(v4, t6, v0);
            v0 = _mm256_permutex2var_epi32(v6, t5, v5);
            v4 = _mm256_permutexvar_epi32(t7, v1);
            v5 = _mm256_permutexvar_epi32(t8, v1);
            v1 = _mm256_permutexvar_epi32(t7, v2);
            v2 = _mm256_permutex2var_epi32(v3, t9, v4);
            v3 = _mm256_permutex2var_epi32(v7, t9, v5);
            v4 = _mm256_permutex2var_epi32(v0, t9, v1);
            v0 = _mm256_loadu_epi32(dst + s0_d + 0);
            v1 = _mm256_permutex2var_epi32(v2, t12, v0);
            _mm256_storeu_epi32(dst + s0_d + 0, v1);
            v0 = _mm256_loadu_epi32(dst + s0_d + 15);
            v1 = _mm256_permutex2var_epi32(v4, t12, v0);
            _mm256_storeu_epi32(dst + s0_d + 15, v1);
            v0 = _mm256_loadu_epi32(dst + s0_d + 30);
            v1 = _mm256_permutex2var_epi32(v3, t12, v0);
            _mm256_storeu_epi32(dst + s0_d + 30, v1);
        }
    }
}
