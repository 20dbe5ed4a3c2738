/* generated vector permutation kernel
 * target: x86-avx  width: 512 bits  elem: 8 B  lanes: 8
 * shape (inner-first): (3, 20)  map (inner-first): (1, 0)
 * shuffle steps: 2  block registers: 4  utilization: 5/8
 * buffers need one vector width of writable slack past the data;
 * aligned accesses, when present, assume vector-aligned buffer bases
 */
#include <stdint.h>
#include <immintrin.h>
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
    const uint32_t *src = (const uint32_t *)src_v;
    uint32_t *dst = (uint32_t *)dst_v;
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
        __m512i v0, v1, v2, v3, v4, v5;
        for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            __builtin_prefetch(dst + (vp_bd + 0) * 2, 1);
            __builtin_prefetch(dst + (vp_bd + 20) * 2, 1);
            __builtin_prefetch(dst + (vp_bd + 27) * 2, 1);
            __builtin_prefetch(dst + (vp_bd + 40) * 2, 1);
            v0 = _mm512_load_epi32(src + (s0_s + 0) * 2);
            v1 = _mm512_loadu_epi32(src + (s0_s + 6) * 2);
            v2 = _mm512_loadu_epi32(src + (s0_s + 12) * 2);
            v3 = _mm512_loadu_epi32(src + (s0_s + 18) * 2);
            v4 = _mm512_permutexvar_epi32(t0, v0);
            v0 = _mm512_permutexvar_epi32(t0, v1);
            v1 = _mm512_permutexvar_epi32(t0, v2);
            v2 = _mm512_permutexvar_epi32(t0, v3);
            v3 = _mm512_permutex2var_epi32(v4, t1, v0);
            v5 = _mm512_permutex2var_epi32(v4, t2, v0);
            v0 = _mm512_permutex2var_epi32(v1, t1, v2);
            v4 = _mm512_permutex2var_epi32(v1, t2, v2);
            v1 = _mm512_permutex2var_epi32(v3, t3, v0);
            v2 = _mm512_permutex2var_epi32(v3, t4, v0);
            v0 = _mm512_permutex2var_epi32(v5, t3, v4);
            _mm512_store_epi32(dst + (s0_d + 0) * 2, v1);
            _mm512_storeu_epi32(dst + (s0_d + 20) * 2, v0);
            _mm512_store_epi32(dst + (s0_d + 40) * 2, v2);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {2};
        int64_t vp_bs = 48, vp_bd = 16;
        int64_t s0_s = 0, s0_d = 0;
        __m512i v0, v1, v2, v3, v4;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            v0 = _mm512_load_epi32(src + (s0_s + 0) * 2);
            v1 = _mm512_loadu_epi32(src + (s0_s + 6) * 2);
            v2 = _mm512_permutexvar_epi32(t0, v0);
            v0 = _mm512_permutexvar_epi32(t0, v1);
            v1 = _mm512_permutex2var_epi32(v2, t1, v0);
            v3 = _mm512_permutex2var_epi32(v2, t2, v0);
            v0 = _mm512_permutexvar_epi32(t5, v1);
            v2 = _mm512_permutexvar_epi32(t6, v1);
            v1 = _mm512_permutexvar_epi32(t5, v3);
            v3 = _mm512_load_epi32(dst + (s0_d + 0) * 2);
            v4 = _mm512_permutex2var_epi32(v0, t7, v3);
            _mm512_store_epi32(dst + (s0_d + 0) * 2, v4);
            v0 = _mm512_loadu_epi32(dst + (s0_d + 20) * 2);
            v3 = _mm512_permutex2var_epi32(v1, t7, v0);
            _mm512_storeu_epi32(dst + (s0_d + 20) * 2, v3);
            v0 = _mm512_load_epi32(dst + (s0_d + 40) * 2);
            v1 = _mm512_permutex2var_epi32(v2, t7, v0);
            _mm512_store_epi32(dst + (s0_d + 40) * 2, v1);
        }
    }
}
