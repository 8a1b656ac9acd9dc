#!/usr/bin/env bash
# The console-script checks of CI: exit codes, error lines and SHA-256 pins
# of the `bifactor` command on generated and hand-written hosts.  Run it
# from an empty directory, where it writes its files.  `bifactor` is the
# installed console script, or an exported shell function running
# `python -m bifactor.cli "$@"` with src/ on PYTHONPATH, which needs no
# install:
#
#   bifactor() { python -m bifactor.cli "$@"; }; export -f bifactor
#   PYTHONPATH=/path/to/repo/src bash /path/to/repo/tests/console_script.sh
set -euo pipefail
bifactor threshold --k 2 --l 3
bifactor generate --model k-minus-matching --n 12 --seed 1 --out g.txt
bifactor factor g.txt --k 2
python -c 'from bifactor.graph import parse_factor, parse_graph; parse_factor(open("g.txt.factor").read(), parse_graph(open("g.txt").read()))'
printf 'factor 2 1\na b\n' > bad.factor
rc=0; python -c 'from bifactor.graph import parse_factor, parse_graph; parse_factor(open("bad.factor").read(), parse_graph(open("g.txt").read()))' 2> bad-err.txt || rc=$?; test "$rc" -eq 1
grep -q 'line 2: non-integer endpoint' bad-err.txt
printf 'factor 2 2\n0 0\n0 99\n' > range.factor
rc=0; python -c 'from bifactor.graph import parse_factor, parse_graph; parse_factor(open("range.factor").read(), parse_graph(open("g.txt").read()))' 2> range-factor-err.txt || rc=$?; test "$rc" -eq 1
grep -qF 'line 3: edge (0, 99) outside 12x12' range-factor-err.txt
printf 'factor 2 2\n0 0\n0 4\n' > nonhost.factor
rc=0; python -c 'from bifactor.graph import parse_factor, parse_graph; parse_factor(open("nonhost.factor").read(), parse_graph(open("g.txt").read()))' 2> nonhost-factor-err.txt || rc=$?; test "$rc" -eq 1
grep -qF 'line 3: factor edge (0, 4) not in host graph' nonhost-factor-err.txt
bifactor detect g.txt --k 2 --l 3
rc=0; bifactor threshold --k 3 --l 2 || rc=$?; test "$rc" -eq 64
rc=0; bifactor factor g.txt --k 12 || rc=$?; test "$rc" -eq 2
rc=0; bifactor connect g.txt --k 2 --l 3 || rc=$?; test "$rc" -eq 4
bifactor generate --model k-minus-matching --n 16 --seed 1 --out d.txt
bifactor connect d.txt --k 2 --l 3 --out c.txt
test -s c.txt
printf 'bipartite 2 2 2\n0 0\n0 0\n' > dup.txt
rc=0; bifactor factor dup.txt --k 1 2> dup-err.txt || rc=$?; test "$rc" -eq 64
grep -q 'line 3: edge (0, 0) repeated' dup-err.txt
printf 'factor 1 2\n0 0\n1 1\n' > k22.want
printf 'bipartite 2 2 2\n1 1\n0 0\n' > unsorted.txt
bifactor factor unsorted.txt --k 1 --out unsorted.f
cmp unsorted.f k22.want
printf 'bipartite 2 2 2\n0 0\n1 01\n' > zero.txt
bifactor factor zero.txt --k 1 --out zero.f
cmp zero.f k22.want
printf 'bipartite 2 2 2\n0\v0\n1 1\n' > vtab.txt
rc=0; bifactor factor vtab.txt --k 1 2> vtab-err.txt || rc=$?; test "$rc" -eq 64
grep -qF "line 2: expected '<x> <y>', got '0'" vtab-err.txt
printf 'bipartite 2 2 2\n0 0\n\xd9\xa1 1\n' > arabic.txt
bifactor factor arabic.txt --k 1 --out arabic.f
cmp arabic.f k22.want
printf 'bipartite 3 2 1\n0 2\n' > range.txt
rc=0; bifactor factor range.txt --k 1 2> range-err.txt || rc=$?; test "$rc" -eq 64
grep -q 'line 2: edge (0, 2) outside 3x2' range-err.txt
rc=0; bifactor factor g.txt --k 2 --out missing/x || rc=$?; test "$rc" -eq 64
rc=0; bifactor factor no-such.txt --k 1 2> nofile-err.txt || rc=$?; test "$rc" -eq 64
printf '%s\n' "error: cannot read no-such.txt: [Errno 2] No such file or directory: 'no-such.txt'" > nofile.want
cmp nofile-err.txt nofile.want
printf 'bipartite 2 2 1\n0 \xff\n' > latin1.txt
rc=0; bifactor factor latin1.txt --k 1 2> latin1-err.txt || rc=$?; test "$rc" -eq 64
printf 'error: latin1.txt: line 2: file is not UTF-8 text\n' > latin1.want
cmp latin1-err.txt latin1.want
# the choice list's quoting differs between Python versions
rc=0; bifactor generate --model nope --n 3 2> model-err.txt || rc=$?; test "$rc" -eq 64
head -1 model-err.txt | grep -q '^usage: bifactor generate '
tail -1 model-err.txt | grep -qx "error: argument --model: invalid choice: 'nope' (choose from .*)"
bifactor generate --model k-minus-matching --n 60 --seed 1 --out big.txt
bifactor factor big.txt --k 3 --out f3.txt
test -s f3.txt
bifactor generate --model k-minus-matching --n 400 --seed 1 --out k400.txt
bifactor factor k400.txt --k 2 --out k400.f > k400.f.out
grep -qx 'factor written to k400.f (199 components)' k400.f.out
head -1 k400.f | grep -qx 'factor 2 800'
bifactor connect k400.txt --k 2 --l 3 --out k400.c
head -1 k400.c | grep -qx 'factor 2 800'
grep -q '^cycle X0 ' k400.c
bifactor factor k400.txt --k 3 --out k400.f3 > k400.f3.out
grep -qx 'factor written to k400.f3 (46 components)' k400.f3.out
printf '%s  %s\n' \
  2ca4c953681a66e76582a16996a094098627522eb2f5d2bbd26dd58d24f7c2f6 k400.f \
  c1d276bf92954af8bc70237f4b1f6f996e00df5a3a33386f0e495fd0cbd2ba77 k400.c \
  0436f17d4ce81095f10d9d5971c83879c3239c13130f40c88fdcea3c790de1ca k400.f3 > k400.sha256
sha256sum -c k400.sha256
python -c 'from bifactor.graph import parse_factor, parse_graph; parse_factor(open("k400.c").read(), parse_graph(open("k400.txt").read()))'
bifactor generate --model k-minus-matching --n 120 --seed 1 --out k120.txt
bifactor connect k120.txt --k 3 --l 3 --out k120.c3
bifactor connect k120.txt --k 2 --l 3 --out k120.c2
printf '%s  %s\n' \
  696c039f1f9167b077b3df59952bda023eea5c813ac8858c44bad86b2d299c85 k120.txt \
  39d6c2ebee53613d3aa23b43f11f821b9b0c93b1eb0cdf9b37493f23d61a1cb7 k120.c3 \
  bd804c598ea961bc79ed75d99a932ebd8f82aca06540f651f48e7f1f7a3d7d77 k120.c2 > k120.sha256
sha256sum -c k120.sha256
bifactor generate --model min-degree-random --n 1000 --seed 1 --k 2 --p 0.001 --out m1000.txt
bifactor factor m1000.txt --k 2 --out m1000.f > m1000.f.out
grep -qx 'factor written to m1000.f (6 components)' m1000.f.out
rc=0; bifactor factor m1000.txt --k 3 --out m1000.v || rc=$?; test "$rc" -eq 2
bifactor generate --model min-degree-random --n 2000 --seed 1 --k 2 --p 0.0005 --out m2000.txt
bifactor generate --model k-regular-union --n 400 --seed 1 --k 3 --out r400.txt
printf '%s  %s\n' \
  5884452bb57eee48db5e09b69a07534cfb068450aae949e8e5e657443de5db1d m1000.txt \
  26a1dda1fbed9c811c9fdb383c229ef7565234abde40370a47fa2140628f744f m1000.f \
  e03032b19170cbbeb058eb4fbbf7b6925a8430dae9fe41c04b3a1e2b540d07ae m1000.v \
  38b1e9a62beff74d312435fb4c422777b0705bfdeabdbf915d24cfa41650b42a m2000.txt \
  4ffdd41bf7bcec48893990aca39c171a0f0679174384a458a24c7b40cf5c55aa r400.txt > m1000.sha256
sha256sum -c m1000.sha256
python3 -c "n=600; e=sorted([(i,i) for i in range(n-1)]+[(i,i+1) for i in range(n-1)]+[(n-1,0)]); print('bipartite',n,n,len(e)); print('\n'.join(f'{x} {y}' for x,y in e))" > chain600.txt
bifactor factor chain600.txt --k 1 --out chain600.f > chain600.f.out
grep -qx 'factor written to chain600.f (600 components)' chain600.f.out
printf '%s  %s\n' \
  4a981fad912861c0bd90dff745ba1459c053d9f8c19cb5e21164058045345922 chain600.txt \
  de7b110cb1d28def3c85a3285ef44c42e0d44304dcf81d790b358725ed466617 chain600.f > chain600.sha256
sha256sum -c chain600.sha256
printf '# c\r\nbipartite 2 2 2\r\n0 0\r\n1 1\r\n' > crlf.txt
bifactor detect crlf.txt --k 1 --l 1 | grep -qx FREE
bifactor verify cor4 --trials 2 --seed 1
bifactor verify cor5 --trials 3 --seed 3 > v-cor5.txt
bifactor verify thm3 --seed 3 > v-thm3.txt
bifactor verify sharp-s13 --seed 3 > v-sharp.txt
bifactor verify prop-s12 > v-prop.txt
bifactor verify oracle-eq > v-oracle.txt
printf '%s  %s\n' \
  119d7f06229d405da9823a8f15c482ba7ce96f7a2e96121c37162ea77dd11dd6 v-cor5.txt \
  a5732f0a06ab87f40ec8182e39b135d5df22e986116f2c61b00390f0aef7af5f v-thm3.txt \
  1e296f3b4b5056bff82e433668912ece0e1ac950cb55422bab410eff02da2b47 v-sharp.txt \
  f1c8e7c1142e8ad6b59f958f57b4ae1bb9f4fb03f558e9cb0019552bb47893b2 v-prop.txt \
  97b6bb508177bc1c8b2abc626a549e8a9a189526f71f6a578cf1c60e36c52a6f v-oracle.txt > verify.sha256
sha256sum -c verify.sha256
rc=0; bifactor verify oracle-eq --seed 1 || rc=$?; test "$rc" -eq 64
bifactor generate --model min-degree-random --n 20 --seed 4 --k 4 --p 0.5 --out s20.txt
bifactor generate --model k-regular-union --n 12 --seed 1 --k 4 --out r12.txt
bifactor detect s20.txt --k 2 --l 3 > s20-23.txt
bifactor detect s20.txt --k 2 --l 4 > s20-24.txt
bifactor detect r12.txt --k 2 --l 4 > r12-24.txt
printf '%s  %s\n' \
  b5c3ffb6a440ef35dd1b7b26c69b91ac9a866e3182207e089e38aeaac27d79d5 s20.txt \
  75263efcd0fd3c87944a01b9bcc2df11f0a5cf5009113d34e920c882f3edeee0 r12.txt \
  0faa96ec3ff2704cebe4c71e2029887d6a459ff17fb6560bd334354e7efa9ed6 s20-23.txt \
  6ae6f8a046287ab7b990228684be044b152156879b59f0b5e32eae8e200f2073 s20-24.txt \
  807a02a5a89d7b83e7b9ea6808b9694bd3526527ccde51cd92514dcc59fec262 r12-24.txt > detect.sha256
sha256sum -c detect.sha256
bifactor generate --model min-degree-random --n 24 --seed 1 --k 2 --p 0.7 --out n24.txt
printf '%s  %s\n' d681072a30e64d6f5e9d366498fbe303a91fd1a6f6ba122262af0449a2af5a5f n24.txt > n24.sha256
sha256sum -c n24.sha256
rc=0; bifactor connect n24.txt --k 2 --l 3 2> n24-err.txt || rc=$?; test "$rc" -eq 4
grep -qx 'error: hypothesis violated: skl_free (graph contains an induced (2,3) star pair)' n24-err.txt
test ! -e n24.txt.connected
rc=0; bifactor connect s20.txt --k 2 --l 3 --hamilton 2> s20-err.txt || rc=$?; test "$rc" -eq 4
grep -qx 'error: hypothesis violated: skl_free (graph contains an induced (1,3) star pair)' s20-err.txt
test ! -e s20.txt.connected
bifactor generate --model double-cycle --n 5 --seed 1 --out h.txt
bifactor connect h.txt --k 2 --l 3 --hamilton --out h.cyc
grep -q '^cycle ' h.cyc
printf 'bipartite 6 6 24\n0 0\n0 1\n0 4\n0 5\n1 0\n1 1\n1 4\n1 5\n2 0\n2 1\n2 2\n2 3\n3 0\n3 1\n3 2\n3 3\n4 2\n4 3\n4 4\n4 5\n5 2\n5 3\n5 4\n5 5\n' > w.txt
bifactor connect w.txt --k 2 --l 3 --hamilton --out w.cyc
grep -qx 'cycle X0 Y1 X1 Y0 X2 Y3 X3 Y2 X4 Y5 X5 Y4' w.cyc
python -c 'from bifactor.graph import parse_factor, parse_graph; [parse_factor(open(f + ".cyc").read(), parse_graph(open(f + ".txt").read())) for f in "hw"]'
rc=0; bifactor connect h.txt --k 2 --l 9 --hamilton || rc=$?; test "$rc" -eq 64
rc=0; bifactor threshold --k 2 --l 3 --m 2 --raw || rc=$?; test "$rc" -eq 64
python -c 'from bifactor.graph import serialize_graph, star_pair_graph; open("sp1200.txt", "w").write(serialize_graph(star_pair_graph(1200, 1)))'
bifactor detect sp1200.txt --k 1200 --l 1 > sp1200-det.txt
printf '%s  %s\n' \
  55500579332045d55bb49dbe55d1d92aa78f993d83364afb7ee38cd2969f3ecf sp1200.txt \
  4418d86585aed567e3bded6cd48c9b034bc621d080e3348b4277593c818551a7 sp1200-det.txt > sp1200.sha256
sha256sum -c sp1200.sha256
