"""Dickman rho's panels on [0, 30] as shipped constants.

`PANELS[m]` holds the 18 degree-16 Chebyshev coefficients of rho on
[m, m + 1], m = 0..29, bit for bit the doubles `smooth.march_dickman_panels(30)`
rounds its 115-digit mpmath march to.  They are stored as the base64 of the
little-endian float64 bytes, so every process that needs rho(u) for u <= 30
reads them instead of marching them again.  Regenerate with

    python -c "import base64, ffchar.smooth as s; print(base64.b64encode(s.march_dickman_panels(30).astype('<f8').tobytes()).decode())"

`tests/test_smooth.py` checks every panel against a fresh march.
"""

from binascii import a2b_base64

import numpy as np

U_MAX = 30
DEGREE = 16

_PANELS_B64 = (
    "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAkssAOxn04z83QwyYGfbVv06aTILMJJ4/+BWIR0yVa78RzY/F"
    "KWU8P2vdwRoGLg+/kTXU9f7U4T4gIKdnt/q0vgI6oelIMok+MMGYyNK9Xr7OfyrD5PwyPk57E6lvsQe+"
    "PZF+ZojP3T3KS26GdOKyverGNtqHDIg9i8M9i+HcXr0N7u/e9go1PdlIX7McaAq99jKzIOetwz/h2gv+"
    "WTHAvwkO55JORZg/wYKdL7QrZb9wMqMY62AyPzoShdzvcQC/ahAlfGl+zj6eJBIaR0ydvh/aTJTvIG0+"
    "I3WgZn3mPb7chJGmk5kPPtzUQOxzI+G9eFcJMkYFsz0GhKsoV4iFvZrHItGqx1g9L3K7tdT2LL1l7TKL"
    "dw4CPTPitrZ6hNW8Ha/64wvrlT+HJR6W7oaVvwfYs3rRj3U/gCoRxMPESr9XoQZeU6MXP6mZdd25Q+O+"
    "riiS6vr2rj7drWajezB5vtFNa9eQA0U+Hpd4SEUbEr7tiMPhyCvgPb2NCVl99629ohrSeFPGfD1jJI2J"
    "QJBMvQUe8jLlMx09SJWAdq+p7rzRTr2hhzjBPHPoNbUB+ZK8s+EoXhZDYD8pc0J8XKlhvyWu0eTKrkQ/"
    "sXCoTBOQH7+tgn2PWCbxPqxD9v92BL2+3Xwawcothj6S4/5XG1NQvlNT2me45xc+StTcwRzA4b0IJFxj"
    "rBKrPS6TC35eYXW9b3p5rxCSQT15g2DutBsOvSon1N493to8Wm4lpBXrqLywvEdYo9J4PERMUcBUyki8"
    "0QLQ/3GtIT8AEW7J8n4kv3TwPzt6ggo/LzRMbVP45r752Gp8UBe9PrdAGV8tX4y+E8gfbZimVj4pK5GV"
    "jkUgvsLKWOG6OOY9KoyUqi7Prb0iaPTGfxJ0PcmK1v/6kDu9BglKy5CHAz1zLp6XOsnMvE1tf/byLJY8"
    "yYMsD0PkYbza8x3+fBovPKF7cxXUovu7R7i2MI/p3T5jfDJvwynivoYTQHwEM8k+BXMzzfPNp74sBIbM"
    "NriAPvqd7WxyW1K+r/xuGKRPID5iyymNwYDovSaXjIOVmLA9A3dMiuQ3db1R+9nJUmg6PWBexmUJWwC9"
    "gtIblhKDxDySzbFpSWeKvGCjVw8yoVE8MrrsRQKeGLxup2FL1nbiOyKzTzd5tay7JYk2v5+HlD6CFNQ/"
    "8tCZvpj6A0ah4oI+5gdHF88DY77sQthBAMM8Prirj6CsMxG+68Jd26/O4D1EoVSNgICrvf2wX0SUdHM9"
    "GYeCXTfuOL0IhVR7Twv+PFvSbMORgsG8+wCltqYrhDzvT/vsrl1HvPJZZOsmnws8YMWYjuDe0Ls9h8Pr"
    "UOGVO4BzCMUDhV27t2DYms2NRz7VKMuDtHBOvqfMmBMeOjc+boyZ7fuVGL5wTssTzqzzPQ6D3JiDFMm9"
    "RGnODapVmj1ag7zl8UxnveTXiilOsjE9bfegQq+j97ynWGX3H7+8PND9unHsaYC8HHSH2ncMQjwgx+Yc"
    "eIADvLGrJL/rD8U7SELfO+sUh7ut7Nx5EFpKO0NILICYDQ+7czrvWxca9z3MhkvlQ4b+vfmeqoyOHOg9"
    "pRjDQguWyr3OIYAn9kOmPREAXg/z1X29kVrHl3iNUD3r62TsuSUfvfhG3Y0hRek8ueNiCMzusbwggVl1"
    "o652PF0x4FaoQDq85DPIF5GH/DvOXUqlZsO9u5BAaDVNX347pyHXYHnRPruI5iqOVeH/Ov1Twix4wsC6"
    "TeHJz+W2oz1TmJ/AAoiqvWJQCmmFk5U9Ba3NodeeeL1qN5pBYWpVPd1++es25i29v8ZSvgFXAT1+MC07"
    "QR/RvIbUgDWDTJ08l1JIZdUAZrzHXgGQa1YtPIfMNd5QnvG7w8FAWep1sztM0h9YQzJ0uyVbJqWpFDQ7"
    "YuZpevl187rcivfkotOyOsAbqtQ9LnK6SB0HmxWxTT2aguD4s0pUvX4qhFY560A9d28Hu6rhI72BTIql"
    "k9wBPYz5YTPb0dm8SOl5wV8UrzxG51US1e1/vFP8pvmcgkw8Pw2raiVuFrzPfkojCWvfOx+shDtAxKO7"
    "l2x0vSmbZjt7fSBePeMnuxzX1xN8vuc67IXHBqmVprqjiSNm/ghlOj+LbQ5uNiO6GoxViNX18zy4+s4h"
    "Bqb7vL/1Kqn2juc8U+/UwaZmzLx71uYd5D2qPIeKMHudi4O8sVtx49dJWDzlkW3uTc4pvPPuPsHD4Pc7"
    "0DnJ4tmDw7u+4iC8dHuMO0a/pLP8tlK7tSnIIn9PFjuv/S+SZFvYup3RE6wirZg6plmoF1ONV7pAFHja"
    "7aQVOhZuFdx2MNO52ArwJ4owmDwAFfTz7vKgvLCGkeXfcI08fg9EKrgmcrxXh4eC1zBRPAkDvVbLSiq8"
    "Zce9lBnMADzURxtMQmDSu8y3UhBEiKE7PZUCW5WYbbuvpo2mdVk2O0Hk0k7Ed/66973FDlLgwjrG3Ppq"
    "cWSFuuDhNTaJWEY6cNCx37O/BbqRzMTmlRvEOa2ZVaPbrYG5k36NuuOjOjyYN0lLittCvGpNrGvJqDA8"
    "q9CeJ6H1FLyfhkTwwkr0O+7qmu1Gxc+7a2Qn6bTNpDvjjsFza1p3uyK9nOR040Y7HcAzOFDeE7vAVWIL"
    "f+beOkRQxQKBuaW6HHVm9mXSazpnUkF5QlIwuq8hnEXdovE5Hqa/dhWqsbmu6nYIFKhwOYseTZwtiC25"
    "aW4xnWHZ2ju2fH7uvS3ju4Y8zJQ+NNE7DcisuVYKtrusdSKZ0cOVO7+hco9vZnG7JAl8NJxLRzvQe89q"
    "RMIau+9BmxKI3Oo6G+cnflvnt7pxDy2g4hKDOqKgcNmojEu6w2jgKSAlEjptsnPYUu/VuUOQaI/ZdJg5"
    "h+gnwJdDWbkecdFGJHoYOXnd2iyoINa46643VezpeDshyhh9APGBu88SkI2LUXA77gUzKotAVbsl1OD8"
    "yl01O6ykExPYaBG764A/DtfG5zrJgEu3MeK7ujQGIrs9mYw65KOcKsAFWrp9rBIbgz8lOu4iJ337be+5"
    "DCwPaNg3tTlHDAwgCVJ6uWs3//cGKD45pFiMvsgGALlqzjE/3PS/OO650s5ooX24cq2xsMZlFTvBo7ql"
    "mAsfuz0FNhl2mAw7GiLIx93m8rqVV067N1HTOntyaJjrA7C60eUTpM1Fhjp0qgbNrp1aukWHFQXX1Ss6"
    "210+yrnX+bkDHOg2R4vFOWz5J+ZSR5C5PJHJyFh4VjmGuqFJTYQcuSFNJwWluuA4jySH3wc7orhnP93N"
    "rqliOOuUHOqiwyG43LXPpvMWsToYtLnF7fW4umz9l/UlQqc6J1EnEKYsj7qsFI9E2CtwOm5J2zeUPku6"
    "QNS9Mw1DIzrJSQyt9Wr3uecZJnQS7sg5uj/syMmSl7m46zqU0gZkOUKa1leV2y65YxpF3hy69TiO+evx"
    "bSW8uPxmpc1w3YA4ev+hSm3JQriYGPBD1K8DOFkd19qUMsO3NRW0B4x9SToK3JUVkrpSulTKzd5to0E6"
    "TMzI/7zxJ7oIlAHRZTAJOp+eHg9YiOW5dG0Ac8Xqvjlpv4mzERiTuShKSElqqWQ5G7jkB1zeM7l+szS6"
    "XywBOR4a4DhY78q4modr2EpQkzgEyb3g+n1ZuJqgq/YlJB847Z/Dar2w4be8GB+BMO2iN8UXgHxq22K3"
    "LA4pBELR4Tks7agiKVTqudLyg/OgCtk5qnf3vuIywbmuHgz23VOiOWi1qyGfw3+5HVKS5TYhVzkLIJ6j"
    "yP0sucotxmRS2f84tw+ZB9Yaz7hLwN5f/1CbOF0emkoixmW4xDVMHZnALzgowf/TLFH1t1xtGdGGgLo3"
    "q3hlR/mnfrevOeC2s7VAN0PhsRq9+AC3hyxYP0xsdzkQzeijM2WBucMnLGx1snA5afrBlVowV7kvI67J"
    "agI5OS0K9ob28hW5GXHc5PIx8DhS39DL9JPEuFEmZWHk7JY4c7B+Ccm2ZrhErK4+Vj40OCu2h3uZYQC4"
    "cRwiJnpCyDetryOMxYuQt3+vdwPF51Q371FSkLqVGLdsq2OHEUTbNjnDXaWFLpy2qlv2VigLDTkRl/zd"
    "IawVuSzJwGkj+wQ5Wa0IlGxw7bhmtUrY9A3QOGicm2MlhKy4pVpR3kRNhTgFZA5F0mlbuJskt+Y+8S44"
    "eEdU4AkS/7cgyY7CthLMN7CXukiWCZe3JLiPR+9NYTdVGrP2vvMnt++IpHTYt+42xrz7tg9XsrYSRVoq"
    "ZKp0Ns0BhDLRtDW2/UkuV8MHoThXeThOX4epuMIDwa2t6Zg4uJvdq6ulgbjV+qbjlXNjOPygh5njd0G4"
    "1an7ms5mGjgIHT92ITHxt4uMpPndpMM3oPKVplX5k7fOyaczkkdiN426A7ldZS63a5MF1GQj9zZuJwKk"
    "nzvAtnOYcIT8G4U2U20vYdiQSbZEKmElIjwNNuBQs9YiK8+1TRtsO8vvMjha8d7E9oA8uBxYT5+LBiw4"
    "wsb0c2MIFLi5erphF032N0nUpbz/PNS38dBczznsrjfiGl8g61yEt8SRG/FOiVc3Zdft/PU2KLdn4EQK"
    "m232NutknuZ54MK2NaWlOJ0ZjTZuQnd0Pa1UtpDY+FIXPRs2vzivvLO24LUp9Wv8V2CjNeyeyiVO8mS1"
    "8Ga3pagCxDfGBlLCejzOt7JsadSV8L03QZoU6a+Vpbc06vEwOkGIN03XaJnYOma3VkK5tXooQTfmSEPq"
    "ddYWt7YcBKUtr+o2bKv2DkjCu7b//qEXugCKNs6QWjOJI1a2u1n86/JDITb9HD3uddTota8rRnD/jbA1"
    "iYAzEoeRdLVOZWWKNCc4NT/dHr5xc/q0yOMvi/0iVDdz6jPGi4let1pQc3SvcE43g1Uk5J0fNrdiiyVI"
    "1RQZN8MytKYUNPe2NS4ITJYV0jY6wpfu8U+otve7jLUOs3w2VK50Zj0rTrYWyz9EJpAcNuDM8xh4lei1"
    "34bbBpNiszWufxDNZjF8tbjZ2r8+A0M1FYJcvurlB7WZHd+UNGfMNOFJoN1IfI+0A4jDAbtV4zZ1J/Ps"
    "02vttp1Ca71hg902Sj6h11udxbaDU46REbaoNs3y70uNEIe2O0leLHYkYjZAEsWqXZ84tj0UJotOWQ02"
    "gC1Djoso37XFLg5ZfMytNXAe9F5t6Xm1IpGjmnmlRDW0dSB361gOtfYC657ir9Q0bO3EheNJmrTB1Mrx"
    "zplfNOKv4gNotyG0X2cKW+e+cTa7dxWh9BZ7ttH111JdVms2oGiNp9MqVLY7whFSwT03NhwRz6ZT4BW2"
    "zLm2JN9b8TWTJaxppMXHtb6klr3hmJw193ZgNJelbrUF22pkVJc9NQFeXoKP+wm1n63mxono1DRZ8jIy"
    "0QqftHPsL0mZYGU0j57XybJyK7Qalko10KzwM09SVThh5rKzz2foA0Iw/zX/T6s2pOAHtvH0jN6qO/g1"
    "jmf+BlkA4rWn1NmbR+fENTRKAzea1aO1ZFJjVJe9fzXZlWLdo+tVtWLhSmURmio1ci6qCqXD/LRMcbIS"
    "5wbMNK/bUPZs1pi0x9F4i94sZDSK1Od2iD0utBMIgEv1BvUz1GSqOZ9Du7MT6608fruAMy/lZGLWKEOz"
)

#: read-only, shape (U_MAX, DEGREE + 2)
PANELS = np.frombuffer(a2b_base64(_PANELS_B64), dtype="<f8").reshape(U_MAX, DEGREE + 2)
