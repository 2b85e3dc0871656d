// acc_data_region_0005.c
// OpenACC V&V functional test (auto-generated, variant 555)

#include <stdio.h>
#include <stdlib.h>
#define N 1024

int main()
{
    int *a = (int *)malloc(N * sizeof(int));
    int *b = (int *)malloc(N * sizeof(int));
    int *c = (int *)malloc(N * sizeof(int));
    int errs = 0;
    for (int i = 0; i < N; i++) {
        a[i] = i + 6;
        b[i] = 0;
        c[i] = 0;
    }
#pragma acc data copyin(a[0:N]) create(b[0:N]) copyout(c[0:N])
    {
#pragma acc parallel loop present(a[0:N], b[0:N])
        for (int i = 0; i < N; i++) {
            b[i] = a[i] * 2;
        }
#pragma acc parallel loop present(b[0:N], c[0:N])
        for (int i = 0; i < N; i++) {
            c[i] = b[i] + 1;
        }
    }
    for (int i = 0; i < N; i++) {
        if (c[i] != a[i] * 2 + 1) {
            errs++;
        }
    }
    free(a);
    free(b);
    free(c);
    if (errs != 0) {
        printf("Test failed: %d errors\n", errs);
        return 1;
    }
    printf("Test passed\n");
    return 0;
}
